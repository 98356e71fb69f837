import pytest

from gevreymhd.solver import cfl_timestep, step_rk4
from gevreymhd.spectral import Grid, taylor_green_mhd


@pytest.fixture(scope="session")
def evolved():
    """Taylor-Green at 32^3 and the state 100 CFL-0.5 steps on."""
    st = taylor_green_mhd(Grid(32))
    dt = cfl_timestep(st, cfl=0.5)
    cur = st
    for _ in range(100):
        cur = step_rk4(cur, dt)
    return st, cur
