import pytest

from vvmf.reps import builtin_registry


@pytest.fixture(scope="module")
def reg():
    """The bundled registry: triv, rho3, rho_zeta and rho_zeta2."""
    return builtin_registry()
