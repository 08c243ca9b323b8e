import numpy as np
import pytest

from srrw_lab import dist as D
from srrw_lab import groups as G
from srrw_lab.errors import DomainError


class TestDistances:
    def test_zero_on_equal(self):
        z5 = G.make_group("cyclic", 5)
        u = D.uniform_vector(z5)
        assert D.tv_distance(u, u) == 0.0
        assert D.chi_distance(u, u) == 0.0
        assert D.linf_distance(u, z5) == 0.0

    @pytest.mark.parametrize("m", [2, 3, 7, 24])
    def test_point_mass_closed_forms(self, m):
        z = G.make_group("cyclic", m)
        delta = np.zeros(m)
        delta[0] = 1.0
        u = np.full(m, 1.0 / m)
        assert D.tv_distance(delta, u) == pytest.approx(1.0 - 1.0 / m, abs=1e-12)
        assert D.chi_distance(delta, u) == pytest.approx(np.sqrt(m - 1.0), abs=1e-12)
        assert D.linf_distance(delta, z) == pytest.approx(m - 1.0, abs=1e-12)

    def test_chi_dominates_twice_tv(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            m = int(rng.integers(2, 30))
            p = rng.random(m)
            p /= p.sum()
            q = rng.random(m) + 0.05
            q /= q.sum()
            assert D.chi_distance(p, q) >= 2.0 * D.tv_distance(p, q) - 1e-12

    def test_chi_requires_positive_reference(self):
        with pytest.raises(DomainError):
            D.chi_distance(np.array([0.5, 0.5]), np.array([1.0, 0.0]))

    def test_shape_mismatch(self):
        with pytest.raises(DomainError):
            D.tv_distance(np.array([1.0]), np.array([0.5, 0.5]))


class TestDistributionVector:
    def test_validation(self):
        z3 = G.make_group("cyclic", 3)
        with pytest.raises(DomainError):
            D.DistributionVector(z3, np.array([0.5, 0.6, 0.1]))
        with pytest.raises(DomainError):
            D.DistributionVector(z3, np.array([0.5, 0.5]))

    def test_tv_to_uniform_and_csv(self, tmp_path):
        z3 = G.make_group("cyclic", 3)
        v = D.DistributionVector(z3, np.array([0.5, 0.25, 0.25]))
        assert v.tv_to_uniform() == pytest.approx(1.0 / 6.0, abs=1e-12)
        path = tmp_path / "dist.csv"
        v.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "element,probability"
        assert len(lines) == 4


class TestWriteCsv:
    def test_rows_as_mappings_or_sequences(self, tmp_path):
        path = tmp_path / "t.csv"
        D.write_csv(path, ["a", "b"], [{"b": 2, "a": 1}, [3, "x,y"]])
        assert path.read_bytes() == b'a,b\n1,2\n3,"x,y"\n'
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t.csv"]

    def test_replaces_existing_file(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("old contents that are longer than the new ones\n")
        D.write_csv(path, ["a"], [])
        assert path.read_bytes() == b"a\n"
