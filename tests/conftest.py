import pytest

from sghmc import make_dataset, quadratic, double_well, gaussian_mixture
from sghmc import theory
from sghmc.objectives import ball_probes  # noqa: F401 -- uniform-ball probe points for the tests

GAMMA = 2.0
BETA = 1.0


@pytest.fixture(scope="session")
def quad_obj():
    return quadratic(2, m0=1.0)


@pytest.fixture(scope="session")
def quad_data():
    return make_dataset("gaussian", 100, 2, seed=7)


@pytest.fixture(scope="session")
def quad_theory(quad_obj, quad_data):
    """Drift / Lyapunov / contraction / moment chain for the plain quadratic."""
    drift = theory.derive_drift_constants(quad_obj.cert, GAMMA, BETA, quad_obj, quad_data)
    lyap = theory.LyapunovParams(BETA, GAMMA, drift.lambda_c, quad_obj, quad_data)
    cc = theory.contraction_constants(drift, quad_obj.cert, GAMMA, BETA, 2, p=2.0)
    mu0 = 0.0  # point mass at the origin
    moment = theory.moment_bound_constants(drift, quad_obj.cert, GAMMA, BETA, 2, mu0)
    return {"drift": drift, "lyap": lyap, "cc": cc, "moment": moment}


@pytest.fixture(scope="session")
def builtin_suite():
    """The three built-in objectives, each bound to a concrete dataset."""
    suite = []
    data_q = make_dataset("gaussian", 100, 2, seed=7)
    suite.append((quadratic(2, m0=1.0), data_q))
    data_w = make_dataset("gaussian", 100, 2, seed=11)
    suite.append((double_well(2, coupling=0.1, z_radius=data_w.max_norm()), data_w))
    data_m = make_dataset("gaussian", 100, 2, seed=13)
    suite.append((gaussian_mixture(2, ridge=0.05, z_radius=data_m.max_norm()), data_m))
    return suite
