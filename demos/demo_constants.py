# Derivative constants (L, M) of the built-in statistics along all three
# routes: closed form, derived U-statistic bounds, and the sampled
# finite-difference estimate that must stay below both.

import math

from unibound import (
    class_separation_statistic,
    closed_form_constants,
    estimate_constants_numeric,
    mean_statistic,
    product_kernel,
    sample_variance_statistic,
    separation_labels,
    squared_difference_kernel,
    u_statistic,
    u_statistic_constant_bounds,
)

n = 8

print("closed forms")
for stat in (
    mean_statistic(n),
    sample_variance_statistic(n),
    class_separation_statistic(n, separation_labels([3, 5])),
):
    rep = closed_form_constants(stat)
    print(f"  {stat.name:18s} L = {rep.lipschitz:.6f}  M = {rep.mixed:.6f}")

print("\nderived bounds for U-statistics")
for kernel in (squared_difference_kernel(), product_kernel(2), product_kernel(3)):
    rep = u_statistic_constant_bounds(n, kernel)
    print(f"  {kernel.name:18s} (m={kernel.order})  L <= {rep.lipschitz:.6f}  M <= {rep.mixed:.6f}")

print("\nsampled finite-difference estimates (lower bounds)")
variance = sample_variance_statistic(n)
numeric = estimate_constants_numeric(variance, probes=200, seed=1)
closed = closed_form_constants(variance)
print(f"  variance   L_hat = {numeric.lipschitz:.8f}  vs closed {closed.lipschitz:.8f}")
print(f"             M_hat = {numeric.mixed:.8f}  vs closed {closed.mixed:.8f}")

ustat = u_statistic(n, product_kernel(2))
numeric_u = estimate_constants_numeric(ustat, probes=200, seed=2)
bound_u = u_statistic_constant_bounds(n, product_kernel(2))
print(f"  product    L_hat = {numeric_u.lipschitz:.8f}  vs bound  {bound_u.lipschitz:.8f}")
print(f"             M_hat = {numeric_u.mixed:.8f}  vs bound  {bound_u.mixed:.8f}")

detail = numeric.detail
print("\nnumeric detail for the variance (per-coordinate suprema)")
print("  grad_sup   :", [f"{v:.5f}" for v in detail.grad_sup])
print("  row sumsq  :", [f"{v:.6f}" for v in detail.mixed_rowsq])
print(f"  entrywise aggregate {detail.mixed_entry_aggregate:.6f} (reported only)")
