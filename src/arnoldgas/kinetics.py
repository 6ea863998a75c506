"""Kinetic-theory estimates: particle count, mean free path/speed/time.

Standard dilute-gas formulas with k_B = 1.380649e-23 J/K:

    N    = p L^3 / (k_B T)
    l_m  = k_B T / (sqrt(2) pi d^2 p)
    v_m  = sqrt(8 k_B T / (pi m))
    t_m  = l_m / v_m,   collision rate = 1 / t_m

The default molecular diameter and mass are chosen so the defaults land
exactly on the round reference values l_m = 2e-7 m and v_m = 4e2 m/s for air
at 300 K and 1e5 Pa in a 1 cm box (air's true mean speed at 300 K, ~468 m/s,
is available by passing the real molecular mass).  The container volume is
L^3 even though the collision model is 2-D: the reference particle count
~2.5e19 corresponds to 1 cm^3 at those conditions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

BOLTZMANN = 1.380649e-23  # J/K

REFERENCE_TEMPERATURE = 300.0  # K
REFERENCE_PRESSURE = 1.0e5  # N/m^2
REFERENCE_LENGTH = 0.01  # m
REFERENCE_MEAN_FREE_PATH = 2.0e-7  # m
REFERENCE_MEAN_SPEED = 4.0e2  # m/s

# Inverted from the formulas above so the forward computation reproduces the
# reference mean free path and mean speed to round-off.
DEFAULT_DIAMETER = math.sqrt(
    BOLTZMANN * REFERENCE_TEMPERATURE
    / (math.sqrt(2.0) * math.pi * REFERENCE_PRESSURE * REFERENCE_MEAN_FREE_PATH)
)  # ~2.16e-10 m
DEFAULT_MASS = 8.0 * BOLTZMANN * REFERENCE_TEMPERATURE / (math.pi * REFERENCE_MEAN_SPEED**2)
# ~6.59e-26 kg


@dataclass(frozen=True)
class KineticParams:
    """Gas conditions and molecular properties; all strictly positive.

    Each field's metadata names its unit.
    """

    temperature: float = field(default=REFERENCE_TEMPERATURE, metadata={"unit": "K"})
    pressure: float = field(default=REFERENCE_PRESSURE, metadata={"unit": "Pa"})
    length: float = field(default=REFERENCE_LENGTH, metadata={"unit": "m"})  # container side L
    diameter: float = field(default=DEFAULT_DIAMETER, metadata={"unit": "m"})  # effective
    mass: float = field(default=DEFAULT_MASS, metadata={"unit": "kg"})  # per molecule

    def __post_init__(self) -> None:
        for param in fields(self):
            value = getattr(self, param.name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{param.name} must be a positive finite number, got {value}")


@dataclass(frozen=True)
class KineticDerived:
    n_particles: float
    mean_free_path: float  # m
    mean_speed: float  # m/s
    mean_free_time: float  # s
    collision_rate: float  # 1/s


def derive(params: KineticParams) -> KineticDerived:
    """Derive particle count, mean free path/speed/time and collision rate."""
    kt = BOLTZMANN * params.temperature
    n_particles = params.pressure * params.length**3 / kt
    mean_free_path = kt / (math.sqrt(2.0) * math.pi * params.diameter**2 * params.pressure)
    mean_speed = math.sqrt(8.0 * kt / (math.pi * params.mass))
    mean_free_time = mean_free_path / mean_speed
    return KineticDerived(
        n_particles=n_particles,
        mean_free_path=mean_free_path,
        mean_speed=mean_speed,
        mean_free_time=mean_free_time,
        collision_rate=1.0 / mean_free_time,
    )
