# Rademacher and Gaussian averages of a class image, three ways:
# exact sign enumeration, antithetic Monte Carlo, and the comparison
# inequalities R <= sqrt(pi/2) G and G <= 3 ln(n) R.

import math

import numpy as np

from unibound import (
    comparison_report,
    finite_space,
    gaussian_mc,
    iid_law,
    rademacher_exact,
    rademacher_mc,
    random_lookup_class,
    sample,
    uniform_on,
)

space = finite_space([(str(j), j / 4.0) for j in range(5)])
law = iid_law(uniform_on(space), 10)
fc = random_lookup_class(space, 8, seed=7)

x = sample(law, seed=1)
image = fc.image_matrix(x)
print("sample x:", np.round(x.values, 2))
print(f"image of the class: {image.shape[0]} vectors in R^{image.shape[1]}")

exact = rademacher_exact(image)
mc = rademacher_mc(image, draws=100_000, seed=2)
print(f"\nR exact       {exact.value:.6f}")
print(f"R monte-carlo {mc.value:.6f}  (stderr {mc.stderr:.2e}, {mc.draws} draws)")
print(f"difference    {abs(mc.value - exact.value):.2e}  vs 4 stderr {4 * mc.stderr:.2e}")

gauss = gaussian_mc(image, draws=100_000, seed=3)
print(f"\nG monte-carlo {gauss.value:.6f}  (stderr {gauss.stderr:.2e})")

# analytic sanity points: G({+1,-1}) = sqrt(2/pi), G({e1,e2}) = 1/sqrt(pi)
pair = gaussian_mc([[1.0], [-1.0]], draws=100_000, seed=4)
basis = gaussian_mc([[1.0, 0.0], [0.0, 1.0]], draws=100_000, seed=5)
print(f"\nG of a sign pair      {pair.value:.5f}  target {math.sqrt(2 / math.pi):.5f}")
print(f"G of two basis vectors {basis.value:.5f}  target {1 / math.sqrt(math.pi):.5f}")

rep = comparison_report(image, draws=100_000, seed=6)
print(f"\nsqrt(pi/2) G - R = {rep.slack_r_vs_g:.5f}  (allowance {rep.allowance_r_vs_g:.5f})")
print(f"3 ln(n) R - G    = {rep.slack_g_vs_r:.5f}  (allowance {rep.allowance_g_vs_r:.5f})")
print("comparison inequalities:", "ok" if rep.ok else "VIOLATED")
