import numpy as np
import pytest
from hypothesis import settings

from centroflow import BodySpec, FlowConfig, SupportFn, disk, ellipse, flow_run, random_body
from centroflow.spectral import angles

settings.register_profile("repro", derandomize=True)
settings.load_profile("repro")


@pytest.fixture(scope="session")
def unit_disk():
    return disk(1.0, 256)


@pytest.fixture(scope="session")
def wobble():
    """The canonical mildly non-elliptical body 1 + 0.2 cos(2 theta)."""
    th = angles(256)
    return SupportFn(1.0 + 0.2 * np.cos(2.0 * th))


@pytest.fixture(scope="session")
def ellipse_21():
    return ellipse(2.0, 1.0, 0.0, 256)


@pytest.fixture(scope="session")
def mild_bodies():
    """Spectrally well-resolved symmetric test corpus."""
    th = angles(256)
    out = [
        disk(1.0, 256),
        disk(0.7, 256),
        ellipse(1.4, 0.8, 0.3, 256),
        SupportFn(1.0 + 0.2 * np.cos(2.0 * th)),
        SupportFn(1.0 + 0.1 * np.cos(2.0 * th) + 0.03 * np.sin(4.0 * th)),
    ]
    out += [random_body(BodySpec(seed=s, mode_count=3, decay=2.0, amplitude=0.3))
            for s in (11, 12, 13)]
    return out


@pytest.fixture(scope="session")
def seeded_trace():
    """A seeded random body (seed 1, n=64) flowed to area 0.3."""
    body = random_body(BodySpec(seed=1, n=64, mode_count=3, decay=1.6, amplitude=0.5))
    return flow_run(body, FlowConfig(cfl=0.1, t_stop_area=0.3, renormalize_every=25))


@pytest.fixture(scope="session")
def fuzz_bodies():
    """The 20 bodies of the n=256 fuzz campaign with seed 1."""
    from centroflow.lab import _fuzz_spec
    return [random_body(_fuzz_spec(1, i, 256)) for i in range(20)]


@pytest.fixture(scope="session")
def flow_row_blocks():
    """The row blocks (R, 64) the monitor pass of the seed-1 flow benchmark
    stacks: ``BLOCK_SAMPLES // 64`` consecutive rows of each of its four
    bodies."""
    from centroflow.flow import BLOCK_SAMPLES
    block, blocks = BLOCK_SAMPLES // 64, []
    for j in range(4):
        body = random_body(BodySpec(seed=1 + 1000 * j, n=64, mode_count=3, decay=1.6,
                                    amplitude=0.5))
        rows = flow_run(body, FlowConfig(cfl=0.1, t_stop_area=0.3, renormalize_every=25)).h_rows
        blocks += [rows[lo:lo + block] for lo in range(0, len(rows), block)]
    return blocks


def near_floor_body(n=64):
    """1 + (1/3 + 1e-12) cos 2 theta: min S = -3.0e-12, inside SupportFn's
    roundoff floor of -1e-10 max h, so it loads as a valid body."""
    th = angles(n)
    return SupportFn(1.0 + (1.0 / 3.0 + 1e-12) * np.cos(2.0 * th))


def smoothed_square(n=256, sigma=0.04, pad=0.02):
    """Square support mollified to a bandlimited strictly convex body."""
    th = angles(n)
    hs = np.abs(np.cos(th)) + np.abs(np.sin(th))
    f = np.fft.rfft(hs)
    k = np.arange(n // 2 + 1)
    f *= np.exp(-0.5 * (sigma * k) ** 2)
    return SupportFn(np.fft.irfft(f, n) + pad)


def off_node_nonconvex_body():
    """The n=256 mollified square on every other node, floored to S = 0.05:
    convex at its 128 nodes, but its interpolant has h + h'' < 0 (down to
    -0.09) between some of them."""
    from centroflow.lab import _floored_rows, _square_perturbation
    return SupportFn(_floored_rows(_square_perturbation(256)[None, ::2])[0])
