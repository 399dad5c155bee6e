import contextlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import settings

import biphoton as bp
from biphoton import modesim, units

# A deeper fuzz for one CI cell: ``pytest --hypothesis-profile=deep``.  Tests
# that set max_examples themselves keep their count under it.
settings.register_profile("deep", max_examples=3000)

# Experiment-scale constants derived from the default apparatus values
# (405 nm pump, 810 nm / 10 nm filters), computed from first principles so
# tests never trust the library's own conversions.
OMEGA_P = 2.0 * np.pi * units.SPEED_OF_LIGHT / 405e-9
DELTA_OMEGA = 2.0 * np.pi * units.SPEED_OF_LIGHT * 10e-9 / 810e-9**2
SINGLES_PERIOD = 810e-9 / units.SPEED_OF_LIGHT       # 2.7019 fs
COINCIDENCE_PERIOD = 405e-9 / units.SPEED_OF_LIGHT   # 1.3509 fs
FS = 1e-15


@pytest.fixture(scope="session")
def default_state():
    return bp.default_spdc_state()


@pytest.fixture(scope="session")
def fgrid(default_state):
    return default_state.spectral.grid


@pytest.fixture(scope="session")
def sgrid(default_state):
    return default_state.spatial.grid


@pytest.fixture(scope="session")
def cfg_mzi(default_state):
    return bp.InterferometerConfig.mzi()


@pytest.fixture(scope="session")
def cfg_mzim(default_state):
    return bp.InterferometerConfig.mzim()


@pytest.fixture(scope="session")
def scan_mzi_fine(default_state, cfg_mzi):
    """Closed-form scan at the bundled-config resolution (0.08 fs)."""
    return bp.scan(default_state, cfg_mzi, -200e-15, 200e-15, 0.08e-15)


@pytest.fixture(scope="session")
def scan_mzim_fine(default_state, cfg_mzim):
    return bp.scan(default_state, cfg_mzim, -200e-15, 200e-15, 0.08e-15)


@pytest.fixture(scope="session")
def odd_state(default_state, sgrid):
    pump = bp.hermite_gauss1_amplitude(sgrid, waist=1e-3)
    return bp.TwoPhotonState(bp.CorrelatedPump(pump), default_state.spectral,
                             default_state.pump_frequency)


def on_frequency_grid(state, grid):
    """``state`` with its anti-correlated spectral sector sampled on ``grid``."""
    return replace(state, spectral=replace(state.spectral, grid=grid))


def arm_pipeline(cfg, tau, splitter=bp.BeamSplitter, delay_arm="b", flip_arm="b"):
    """The instrument's elements with splitters of class ``splitter`` and the
    delay and the MZIM's flip on the given arms."""
    elements = [splitter(), bp.Delay(delay_arm, tau)]
    if cfg.kind == bp.MZIM:
        elements.append(bp.SpatialFlip(flip_arm))
    return elements + [splitter()]


@contextlib.contextmanager
def oracle_convention(splitter):
    """Run ``oracle_scan`` with splitters of class ``splitter``, by patching
    ``modesim.build_pipeline``; ``bp.BeamSplitter`` is its own."""
    with pytest.MonkeyPatch.context() as patch:
        if splitter is not bp.BeamSplitter:
            patch.setattr(modesim, "build_pipeline",
                          lambda cfg, tau: arm_pipeline(cfg, tau, splitter))
        yield
