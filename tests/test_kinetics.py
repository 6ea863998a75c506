import math

import pytest

from arnoldgas import kinetics
from arnoldgas.kinetics import KineticParams


class TestDerive:
    def test_reference_quintet(self):
        derived = kinetics.derive(KineticParams())
        assert derived.n_particles == pytest.approx(2.5e19, rel=0.05)
        assert derived.mean_free_path == pytest.approx(2e-7, rel=1e-12)
        assert derived.mean_speed == pytest.approx(4e2, rel=1e-12)
        assert derived.mean_free_time == pytest.approx(5e-10, rel=1e-12)
        assert derived.collision_rate == pytest.approx(2e9, rel=1e-12)

    def test_identities_exact(self):
        derived = kinetics.derive(KineticParams(temperature=250, pressure=9e4))
        assert derived.mean_free_time == derived.mean_free_path / derived.mean_speed
        assert derived.collision_rate == 1.0 / derived.mean_free_time

    def test_pressure_scaling(self):
        base = kinetics.derive(KineticParams())
        doubled = kinetics.derive(KineticParams(pressure=2e5))
        assert doubled.n_particles == pytest.approx(2 * base.n_particles, rel=1e-12)
        assert doubled.mean_free_path == pytest.approx(base.mean_free_path / 2, rel=1e-12)
        assert doubled.mean_speed == base.mean_speed

    def test_temperature_scaling(self):
        base = kinetics.derive(KineticParams())
        hot = kinetics.derive(KineticParams(temperature=1200))
        assert hot.mean_speed == pytest.approx(2 * base.mean_speed, rel=1e-12)
        assert hot.n_particles == pytest.approx(base.n_particles / 4, rel=1e-12)
        assert hot.mean_free_path == pytest.approx(4 * base.mean_free_path, rel=1e-12)

    def test_air_mass_gives_realistic_speed(self):
        # with air's true molecular mass the mean speed is ~468 m/s at 300 K
        derived = kinetics.derive(KineticParams(mass=4.81e-26))
        assert derived.mean_speed == pytest.approx(468, rel=0.01)

    @pytest.mark.parametrize("field", ["temperature", "pressure", "length", "diameter", "mass"])
    def test_rejects_non_positive(self, field):
        with pytest.raises(ValueError, match=field):
            KineticParams(**{field: 0.0})

    def test_default_molecule_values(self):
        assert KineticParams().diameter == pytest.approx(2.16e-10, rel=0.01)
        assert KineticParams().mass == pytest.approx(6.59e-26, rel=0.01)

