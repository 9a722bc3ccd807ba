"""Cold start: importing the simulator loads only the scipy a run uses.

Every run -- each ``repro.cli`` command and each benchmark workload --
pays for the imports of the simulator before it does any work.  The
normal-distribution functions come from ``scipy.special`` (``ndtr`` /
``ndtri``, the functions ``scipy.stats.norm`` calls internally), and
the two rarely used solvers import their modules inside the function
that needs them: ``brentq`` in ``WirePopulationSpec.chip_quantile``
and ``scipy.sparse`` in the sparse LU operator and the PDN matrix
build.  These tests pin both halves: no ``repro`` import loads
``scipy.stats``, ``scipy.optimize`` or ``scipy.sparse``, and every
call site returns the same bits the ``scipy.stats.norm`` code did.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from scipy.stats import norm

import repro
import repro.em.statistics as statistics_module
from repro import units
from repro.analysis.fitting import LognormalFit
from repro.bti.variability import BtiVariabilityModel
from repro.em.statistics import WirePopulationSpec

#: Modules no ``repro`` import may load.
HEAVY_MODULES = ("scipy.stats", "scipy.optimize", "scipy.sparse")

#: Fractions with the extremes the call sites are fed.
FRACTIONS = (1e-300, 1e-200, 1e-100, 1e-30, 1e-12, 1e-6, 1e-3, 0.01,
             0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0 - 1e-6,
             1.0 - 1e-12)

_GUARD_SCRIPT = textwrap.dedent("""
    import importlib, json, pkgutil, sys
    import numpy as np
    import scipy.linalg, scipy.special

    def heavy():
        return {{name for name in sys.modules for prefix in {heavy!r}
                if name == prefix or name.startswith(prefix + ".")}}

    # What the two scipy modules the simulator needs load themselves:
    # nothing on current scipy, but older releases' scipy.linalg
    # imports scipy.sparse eagerly.
    floor = heavy()
    import repro
    for module in pkgutil.iter_modules(repro.__path__):
        importlib.import_module("repro." + module.name)
    added = sorted(heavy() - floor)

    from repro import units
    from repro.em.statistics import WirePopulationSpec
    from repro.solvers import SparseLuOperator
    spec = WirePopulationSpec(n_wires=1000,
                              median_ttf_s=units.years(50.0), sigma=0.4)
    quantile = spec.chip_quantile(0.5)
    matrix = np.array([[4.0, -1.0, 0.0], [-1.0, 4.0, -1.0],
                       [0.0, -1.0, 4.0]])
    solution = SparseLuOperator(matrix).solve(np.array([1.0, 2.0, 3.0]))
    print(json.dumps({{"added": added,
                      "chip_quantile": quantile.hex(),
                      "sparse_solve": [x.hex() for x in solution]}}))
""")


@pytest.fixture(scope="module")
def guard_run():
    """Import every ``repro`` module in a fresh interpreter, then run
    the two function-local imports."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(
        repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in (env.get("PYTHONPATH"),) if p])
    completed = subprocess.run(
        [sys.executable, "-c", _GUARD_SCRIPT.format(heavy=HEAVY_MODULES)],
        capture_output=True, text=True, env=env, timeout=300)
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.splitlines()[-1])


class TestImportGraph:
    def test_no_repro_import_loads_heavy_scipy(self, guard_run):
        assert guard_run["added"] == []

    def test_function_local_brentq_import_works(self, guard_run):
        spec = WirePopulationSpec(n_wires=1000,
                                  median_ttf_s=units.years(50.0),
                                  sigma=0.4)
        assert float.fromhex(guard_run["chip_quantile"]) \
            == spec.chip_quantile(0.5)

    def test_function_local_sparse_import_works(self, guard_run):
        matrix = np.array([[4.0, -1.0, 0.0], [-1.0, 4.0, -1.0],
                           [0.0, -1.0, 4.0]])
        solution = [float.fromhex(x) for x in guard_run["sparse_solve"]]
        np.testing.assert_allclose(
            solution, np.linalg.solve(matrix, [1.0, 2.0, 3.0]),
            rtol=1e-14)


class TestBitwiseCallSites:
    """Each call site equals its ``scipy.stats.norm`` expression with
    ``==`` on floats."""

    @pytest.fixture()
    def spec(self) -> WirePopulationSpec:
        return WirePopulationSpec(n_wires=1000,
                                  median_ttf_s=units.years(50.0),
                                  sigma=0.4)

    def test_special_functions_equal_norm_on_a_dense_grid(self):
        z = np.concatenate([np.linspace(-40.0, 40.0, 20_001),
                            [-np.inf, np.inf, -1e300, 1e300]])
        assert np.array_equal(statistics_module.ndtr(z), norm.cdf(z))
        q = np.concatenate([np.linspace(0.0, 1.0, 20_001),
                            np.asarray(FRACTIONS)])
        assert np.array_equal(statistics_module.ndtri(q), norm.ppf(q))

    def test_wire_failure_probability(self, spec):
        times = [1e-300, 1.0, units.hours(1.0), spec.median_ttf_s,
                 1e300] + [spec.median_ttf_s * float(np.exp(k))
                           for k in np.linspace(-40.0, 40.0, 161)]
        for time_s in times:
            z = math.log(time_s / spec.median_ttf_s) / spec.sigma
            assert spec.wire_failure_probability(time_s) \
                == float(norm.cdf(z))

    def test_wire_quantile(self, spec):
        for fraction in FRACTIONS:
            old = spec.median_ttf_s * math.exp(
                spec.sigma * float(norm.ppf(fraction)))
            assert spec.wire_quantile(fraction) == old

    def test_chip_quantile(self, spec, monkeypatch):
        # The old root search is the same code on ``norm``'s functions.
        new = [spec.chip_quantile(f) for f in FRACTIONS]
        monkeypatch.setattr(statistics_module, "ndtr", norm.cdf)
        monkeypatch.setattr(statistics_module, "ndtri", norm.ppf)
        old = [spec.chip_quantile(f) for f in FRACTIONS]
        assert new == old

    def test_variability_quantile(self):
        model = BtiVariabilityModel()
        for mean_v in (0.0, 1e-3, 0.05):
            for fraction in FRACTIONS:
                old = max(mean_v + float(norm.ppf(fraction))
                          * model.std_v(mean_v), 0.0)
                assert model.quantile_v(mean_v, fraction) == old

    def test_lognormal_fit_quantile(self):
        fit = LognormalFit(median_s=units.years(12.0), sigma=0.55)
        for fraction in FRACTIONS:
            old = float(fit.median_s
                        * np.exp(fit.sigma * norm.ppf(fraction)))
            assert fit.quantile(fraction) == old
