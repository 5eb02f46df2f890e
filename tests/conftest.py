"""Shared fixtures: the reference experimental parameter set."""

from pathlib import Path

import numpy as np
import pytest

import rydcav
from rydcav import CavitySpec, EnsembleState, McpModel, NoiseChain, ProbeConfig, TransitionSet

TWO_PI = 2.0 * np.pi

CONFIG_DIR = Path(rydcav.__file__).parent / "configs"


@pytest.fixture
def cavity():
    return CavitySpec(
        omega_c=TWO_PI * 20.5583e9,
        kappa=TWO_PI * 236e3,
        kappa_out=TWO_PI * 150e3,
        length_z=0.014,
        g_max=TWO_PI * 14.3e3,
    )


@pytest.fixture
def ensemble261():
    return EnsembleState(n_atoms=261)


@pytest.fixture
def transitions():
    return TransitionSet(-TWO_PI * 8e6, -TWO_PI * 26e6)


@pytest.fixture
def probe():
    return ProbeConfig(n_c=5.9e4, tau_i=6.2e-6, alpha=4.0)


@pytest.fixture
def noise():
    return NoiseChain(n_noise=23.0)


@pytest.fixture
def mcp():
    return McpModel()


@pytest.fixture
def config_dir():
    return CONFIG_DIR
