"""Start-up loads only what every run uses.

``scipy.special`` costs about a quarter of a second to import, and only the
beta family needs it (for ``betaincinv``). The exact Gaussian average on two
support points finds its hull in numpy, with no ``scipy.spatial``. Each test
runs in a fresh process, since this one has long since imported everything.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=120)
    return done.stdout


def test_importing_the_cli_and_runner_leaves_scipy_special_unloaded():
    out = _run("import sys\n"
               "import unibound, unibound.cli, unibound.runner\n"
               "print('scipy.special' in sys.modules)\n")
    assert out.split() == ["False"]


def test_beta_draws_load_betaincinv_on_first_use():
    out = _run("import sys\n"
               "from unibound.spaces import beta_family, draw_batch, iid_law\n"
               "before = 'scipy.special' in sys.modules\n"
               "values = draw_batch(iid_law(beta_family(2.0, 3.0), 4), 100, 3)\n"
               "print(before, 'scipy.special' in sys.modules, values.dtype == 'float64',\n"
               "      bool(((values >= 0.0) & (values <= 1.0)).all()))\n")
    assert out.split() == ["False", "True", "True", "True"]


def test_a_two_point_deviate_run_leaves_scipy_spatial_and_special_unloaded(tmp_path):
    out = _run("import sys\n"
               "from unibound.cli import main\n"
               f"code = main(['run', {str(ROOT / 'configs' / 'deviate_mean.yaml')!r}, "
               f"'--out', {str(tmp_path)!r}])\n"
               "print(code, 'scipy.spatial' in sys.modules, 'scipy.special' in sys.modules)\n")
    assert out.split()[-3:] == ["0", "False", "False"]
