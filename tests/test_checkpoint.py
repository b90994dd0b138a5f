"""Binary checkpoint format: round trips and corruption handling."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bosp import (
    PeriodicGrid,
    SolverConfig,
    SpectralField,
    Trajectory,
    load_checkpoint,
    random_field,
    remove_mean_bo,
    renormalize_gbo,
    save_checkpoint,
    solve,
    solve_batch,
)
from bosp.checkpoint import EQUATION_TAGS, VERSION
from bosp.errors import (
    BadMagicError,
    CheckpointError,
    NonFinitePayloadError,
    TruncatedFileError,
    VersionError,
)


_HEADER = struct.calcsize("<4sIdIIB")


def _record_offset(n, i):
    """File offset of trajectory record i: a time, then n/2+1 coefficients."""
    return _HEADER + 4 + i * (24 + 8 * n)


@pytest.fixture
def field(rng):
    grid = PeriodicGrid(1.5, 64)
    return random_field(grid, rng, n_modes=20, mean=0.3)


@pytest.fixture
def trajectory(rng):
    grid = PeriodicGrid(1.0, 32)
    u0 = random_field(grid, rng, n_modes=8, amplitude=0.1, normalize="h1")
    return solve(u0, SolverConfig("gbo", k=2, dt=0.01, t_final=0.1,
                                  sample_stride=2))


class TestRoundTrip:
    def test_field_bytes_identical(self, field, tmp_path):
        p1, p2 = tmp_path / "a.bosp", tmp_path / "b.bosp"
        save_checkpoint(field, p1)
        loaded = load_checkpoint(p1)
        assert isinstance(loaded, SpectralField)
        assert np.array_equal(loaded.coeffs, field.coeffs)
        assert loaded.grid == field.grid
        assert loaded.is_real
        save_checkpoint(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_trajectory_bytes_identical(self, trajectory, tmp_path):
        p1, p2 = tmp_path / "a.bosp", tmp_path / "b.bosp"
        save_checkpoint(trajectory, p1)
        loaded = load_checkpoint(p1)
        assert isinstance(loaded, Trajectory)
        assert loaded.equation == "gbo" and loaded.k == 2
        assert np.array_equal(loaded.times, trajectory.times)
        for a, b in zip(loaded, trajectory):
            assert np.array_equal(a.coeffs, b.coeffs)
        save_checkpoint(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_negative_zero_imaginary_parts_survive(self, tmp_path):
        grid = PeriodicGrid(1.0, 8)
        coeffs = np.zeros(8, dtype=complex)
        coeffs[[0, 1, 7]] = 0.5, 0.25, 0.25
        coeffs.imag = -0.0
        field = SpectralField(grid, coeffs)
        assert np.signbit(field.coeffs.imag).all()
        p1, p2 = tmp_path / "a.bosp", tmp_path / "b.bosp"
        save_checkpoint(field, p1)
        loaded = load_checkpoint(p1)
        assert np.array_equal(np.signbit(loaded.coeffs.imag),
                              np.signbit(field.coeffs.imag))
        save_checkpoint(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_renormalized_tag_round_trip(self, rng, tmp_path):
        grid = PeriodicGrid(1.0, 32)
        u0 = random_field(grid, rng, n_modes=8, amplitude=0.1, normalize="h1")
        traj = solve(u0, SolverConfig("renormalized_gbo", k=3, dt=0.01,
                                      t_final=0.05, sample_stride=1))
        p = tmp_path / "r.bosp"
        save_checkpoint(traj, p)
        loaded = load_checkpoint(p)
        assert loaded.equation == "renormalized_gbo" and loaded.k == 3

    def test_library_trajectories_build_and_round_trip(self, rng, tmp_path):
        # Trajectory refuses non-real slots 0 and n/2; every producer meets that
        grid = PeriodicGrid(1.0, 32)
        fields = []
        for mean in (0.2, 0.0):
            coeffs = random_field(grid, rng, n_modes=15, amplitude=0.2, normalize="h1",
                                  mean=mean).coeffs.copy()
            coeffs[grid.n // 2] = 0.01  # a live Nyquist slot
            fields.append(SpectralField(grid, coeffs))
        trajs = []
        for equation, k in [("linear", 1), ("bo2", 1), ("gbo", 1), ("gbo", 2),
                            ("renormalized_gbo", 2)]:
            u0s = fields[1:] if equation == "renormalized_gbo" else fields
            cfg = SolverConfig(equation, k=k, dt=0.01, t_final=0.05, dealias="alias_free")
            trajs += solve_batch(u0s, cfg)
        by_tag = {(t.equation, t.k): t for t in trajs}
        trajs += [remove_mean_bo(by_tag["gbo", 1]), remove_mean_bo(by_tag["bo2", 1]),
                  renormalize_gbo(by_tag["gbo", 2])]
        for i, traj in enumerate(trajs):
            assert isinstance(traj, Trajectory)
            assert not traj.half_coeffs[:, [0, grid.n // 2]].imag.any()
            path = tmp_path / f"{i}.bosp"
            save_checkpoint(traj, path)
            loaded = load_checkpoint(path)
            assert np.array_equal(loaded.half_coeffs, traj.half_coeffs)
            assert loaded[0].mean == traj.half_coeffs[0, 0].real

    def test_header_annotations(self, field, tmp_path):
        # a field file carries no annotations: k 0, tag 0 and time 0
        p = tmp_path / "c.bosp"
        save_checkpoint(field, p)
        raw = p.read_bytes()
        magic, version, lam, n, k, tag = struct.unpack_from("<4sIdIIB", raw)
        assert magic == b"BOSP" and version == VERSION
        assert lam == field.grid.lam and n == field.grid.n
        assert k == 0 and tag == 0
        (t,) = struct.unpack_from("<d", raw, _HEADER)
        assert t == 0.0 and not np.signbit(t)
        assert len(raw) == _HEADER + 8 + 16 * n

    def test_trajectory_records_hold_half_spectra(self, trajectory, tmp_path):
        p = tmp_path / "h.bosp"
        save_checkpoint(trajectory, p)
        raw = p.read_bytes()
        n, count = trajectory.grid.n, len(trajectory)
        assert len(raw) == _record_offset(n, count)
        assert struct.unpack_from("<I", raw, _HEADER) == (count,)
        records = np.frombuffer(raw, offset=_HEADER + 4, dtype=[
            ("time", "<f8"), ("coeffs", "<c16", (n // 2 + 1,))])
        assert np.array_equal(records["time"], trajectory.times)
        assert np.array_equal(records["coeffs"], trajectory.half_coeffs)


def _small_bytes(path, kind):
    grid = PeriodicGrid(1.0, 8)
    u0 = SpectralField.from_function(grid, lambda x: 0.1 * np.cos(x))
    save_checkpoint(u0 if kind == "field" else
                    solve(u0, SolverConfig("gbo", dt=0.01, t_final=0.03)), path)
    return path.read_bytes()


class TestCorruption:
    @pytest.mark.parametrize("kind", ["field", "trajectory"])
    def test_truncated_file(self, field, trajectory, tmp_path, kind):
        p = tmp_path / "t.bosp"
        save_checkpoint(field if kind == "field" else trajectory, p)
        raw = p.read_bytes()
        for cut in (3, 20, _HEADER + 2, len(raw) - 7):
            p.write_bytes(raw[:cut])
            with pytest.raises(TruncatedFileError):
                load_checkpoint(p)

    def test_trajectory_cut_to_field_size(self, trajectory, tmp_path):
        # the kind comes from the tag, so no cut of a trajectory reads as a field
        p = tmp_path / "cut.bosp"
        save_checkpoint(trajectory, p)
        n = trajectory.grid.n
        p.write_bytes(p.read_bytes()[: _HEADER + 8 + 16 * n])
        with pytest.raises(TruncatedFileError, match="whole number of snapshots"):
            load_checkpoint(p)

    def test_tagged_field_file_is_refused(self, field, tmp_path):
        # a field under an equation tag is read, and refused, as a trajectory
        p = tmp_path / "tagged.bosp"
        save_checkpoint(field, p)
        raw = bytearray(p.read_bytes())
        raw[_HEADER - 1] = EQUATION_TAGS["gbo"]
        p.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError):
            load_checkpoint(p)

    def test_snapshot_count_disagrees_with_payload(self, trajectory, tmp_path):
        p = tmp_path / "count.bosp"
        save_checkpoint(trajectory, p)
        raw = bytearray(p.read_bytes())
        for count in (len(trajectory) - 1, len(trajectory) + 1):
            raw[_HEADER: _HEADER + 4] = struct.pack("<I", count)
            p.write_bytes(bytes(raw))
            with pytest.raises(TruncatedFileError, match="whole number of snapshots"):
                load_checkpoint(p)

    def test_bad_magic(self, field, tmp_path):
        p = tmp_path / "m.bosp"
        save_checkpoint(field, p)
        raw = bytearray(p.read_bytes())
        raw[:4] = b"XOSP"
        p.write_bytes(bytes(raw))
        with pytest.raises(BadMagicError):
            load_checkpoint(p)

    def test_version_error_names_both_versions(self, field, tmp_path):
        p = tmp_path / "v.bosp"
        save_checkpoint(field, p)
        raw = bytearray(p.read_bytes())
        raw[4:8] = struct.pack("<I", 7)
        p.write_bytes(bytes(raw))
        with pytest.raises(VersionError, match=rf"version 7.*version {VERSION}"):
            load_checkpoint(p)

    def test_non_finite_payload_rejected_on_save(self, field, tmp_path):
        bad = SpectralField(field.grid,
                            np.where(np.arange(field.grid.n) == 3, np.nan,
                                     field.coeffs))
        with pytest.raises(NonFinitePayloadError):
            save_checkpoint(bad, tmp_path / "n.bosp")

    def test_non_finite_payload_rejected_on_load(self, field, tmp_path):
        p = tmp_path / "n.bosp"
        save_checkpoint(field, p)
        raw = bytearray(p.read_bytes())
        off = struct.calcsize("<4sIdIIB") + 8  # first coefficient
        raw[off: off + 8] = struct.pack("<d", np.inf)
        p.write_bytes(bytes(raw))
        with pytest.raises(NonFinitePayloadError):
            load_checkpoint(p)

    def test_unknown_tag_byte(self, field, tmp_path):
        p = tmp_path / "u.bosp"
        save_checkpoint(field, p)
        raw = bytearray(p.read_bytes())
        raw[struct.calcsize("<4sIdII")] = 99
        p.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError):
            load_checkpoint(p)

    @pytest.mark.parametrize("lam", [0.0, -1.0, np.nan])
    def test_invalid_lambda_in_header(self, field, tmp_path, lam):
        p = tmp_path / "lam.bosp"
        save_checkpoint(field, p)
        raw = bytearray(p.read_bytes())
        raw[8:16] = struct.pack("<d", lam)
        p.write_bytes(bytes(raw))
        with pytest.raises(NonFinitePayloadError, match="invalid lambda"):
            load_checkpoint(p)

    @pytest.mark.parametrize("equation, k", [("gbo", 0), ("bo2", 3), ("linear", 2)])
    def test_header_naming_no_equation_is_refused(self, trajectory, tmp_path, equation, k):
        # a gbo header with k = 0 once loaded, and drift_report took an energy at k = 0
        p = tmp_path / "k.bosp"
        save_checkpoint(trajectory, p)
        raw = bytearray(p.read_bytes())
        raw[20:25] = struct.pack("<IB", k, EQUATION_TAGS[equation])
        p.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="invalid trajectory: k "):
            load_checkpoint(p)

    @pytest.mark.parametrize("k", [1, 7])
    def test_field_header_k_is_checked(self, field, tmp_path, k):
        p = tmp_path / "fk.bosp"
        save_checkpoint(field, p)
        raw = bytearray(p.read_bytes())
        raw[20:24] = struct.pack("<I", k)
        p.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match=f"a field has k = 0, got k = {k}"):
            load_checkpoint(p)

    def test_unsupported_object(self, tmp_path):
        with pytest.raises(TypeError):
            save_checkpoint([1, 2, 3], tmp_path / "x.bosp")

    @pytest.mark.parametrize("count", [0, 1])
    def test_single_snapshot_trajectory(self, trajectory, tmp_path, count):
        p = tmp_path / "one.bosp"
        save_checkpoint(trajectory, p)
        raw = bytearray(p.read_bytes())
        raw[_HEADER: _HEADER + 4] = struct.pack("<I", count)
        p.write_bytes(bytes(raw[: _record_offset(trajectory.grid.n, count)]))
        with pytest.raises(CheckpointError, match="at least 2 snapshots"):
            load_checkpoint(p)

    def test_non_uniform_times(self, trajectory, tmp_path):
        p = tmp_path / "times.bosp"
        save_checkpoint(trajectory, p)
        raw = bytearray(p.read_bytes())
        off = _record_offset(trajectory.grid.n, 2)  # third sample time
        raw[off: off + 8] = struct.pack("<d", 0.5)
        p.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="uniformly increasing"):
            load_checkpoint(p)

    @pytest.mark.parametrize("mode, value", [
        (0, 1e-20),     # an imaginary part on the mean slot
        (16, -1e-20),   # an imaginary part on the slot n/2
    ])
    def test_non_symmetric_trajectory(self, trajectory, tmp_path, mode, value):
        p = tmp_path / "asym.bosp"
        save_checkpoint(trajectory, p)
        raw = bytearray(p.read_bytes())
        off = _record_offset(trajectory.grid.n, 1) + 8 + 16 * mode + 8  # second sample
        raw[off: off + 8] = struct.pack("<d", value)
        p.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="must be real"):
            load_checkpoint(p)

    @pytest.mark.parametrize("byte", [0, 6])  # lowest mantissa bit, lowest exponent bit
    @pytest.mark.parametrize("mode", [0, 16])  # imaginary parts of the real slots
    def test_flipped_byte_is_refused(self, trajectory, tmp_path, mode, byte):
        p = tmp_path / "flip.bosp"
        save_checkpoint(trajectory, p)
        raw = bytearray(p.read_bytes())
        last = _record_offset(trajectory.grid.n, len(trajectory) - 1) + 8  # last coeffs
        raw[last + 16 * mode + 8 + byte] ^= 0x01 if byte == 0 else 0x10
        p.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="must be real"):
            load_checkpoint(p)

    def test_non_finite_checked_before_real_slots(self, trajectory, tmp_path):
        p = tmp_path / "nan.bosp"
        save_checkpoint(trajectory, p)
        raw = bytearray(p.read_bytes())
        off = _record_offset(trajectory.grid.n, 1) + 8 + 8  # imaginary part of slot 0
        raw[off: off + 8] = struct.pack("<d", np.nan)
        p.write_bytes(bytes(raw))
        with pytest.raises(NonFinitePayloadError):
            load_checkpoint(p)

    def test_version_1_trajectory_is_refused(self, trajectory, tmp_path):
        # version 1 stored every snapshot as its full (n,) spectrum
        n, grid = trajectory.grid.n, trajectory.grid
        records = np.empty(len(trajectory), dtype=[("time", "<f8"), ("coeffs", "<c16", (n,))])
        records["time"] = trajectory.times
        records["coeffs"] = [f.coeffs for f in trajectory]
        header = struct.pack("<4sIdIIB", b"BOSP", 1, grid.lam, n, trajectory.k,
                             EQUATION_TAGS[trajectory.equation])
        p = tmp_path / "v1.bosp"
        p.write_bytes(header + struct.pack("<I", len(trajectory)) + records.tobytes())
        with pytest.raises(VersionError, match=r"version 1\b.*version 2\b"):
            load_checkpoint(p)

    def test_odd_n_in_header(self, tmp_path):
        p = tmp_path / "odd.bosp"
        header = struct.pack("<4sIdIIB", b"BOSP", VERSION, 1.0, 33, 0, 0)
        p.write_bytes(header + bytes(8 + 16 * 33))
        with pytest.raises(CheckpointError, match="even integer"):
            load_checkpoint(p)

    @pytest.mark.parametrize("kind", ["field", "trajectory"])
    @settings(derandomize=True, deadline=None)
    @given(data=st.data())
    def test_damaged_file_loads_or_raises_named_error(self, tmp_path_factory, data, kind):
        p = tmp_path_factory.mktemp("fuzz") / "t.bosp"
        raw = bytearray(_small_bytes(p, kind))
        if data.draw(st.booleans(), label="truncate"):
            raw = raw[: data.draw(st.integers(0, len(raw) - 1), label="length")]
        else:
            at = data.draw(st.integers(0, len(raw) - 1), label="offset")
            raw[at] ^= data.draw(st.integers(1, 255), label="mask")
        p.write_bytes(bytes(raw))
        try:
            load_checkpoint(p)
        except CheckpointError:
            pass
