"""Unit tests for the frame-program compiler and the parity transfer."""

import numpy as np
import pytest

from repro.circuits.circuit import Circuit
from repro.circuits.memory import build_memory_circuit
from repro.circuits.noise import NoiseParams
from repro.sim.frame_program import (
    OP_CX,
    OP_DEPOLARIZE2,
    OP_H,
    OP_M,
    OP_R,
    OP_X_ERROR,
    compile_frame_program,
)
from repro.sim.packing import (
    pack_row_keys,
    pack_rows,
    unique_row_index,
    unique_rows,
    unpack_rows,
)
from repro.sim.parity import ParityTransfer


class TestCompiler:
    def test_annotations_are_dropped(self):
        c = Circuit()
        c.add("R", [0])
        c.add("TICK")
        c.add("M", [0])
        c.add("DETECTOR", [0])
        c.add("OBSERVABLE_INCLUDE", [0], 0)
        program = compile_frame_program(c)
        assert [op.kind for op in program.ops] == [OP_R, OP_M]
        assert program.num_detectors == 1
        assert program.num_observables == 1

    def test_dead_noise_is_eliminated(self):
        c = Circuit()
        c.add("R", [0])
        c.add("X_ERROR", [0], 0.0)
        c.add("M", [0])
        program = compile_frame_program(c)
        assert [op.kind for op in program.ops] == [OP_R, OP_M]

    def test_record_offsets_are_static(self):
        c = Circuit()
        c.add("R", [0, 1, 2])
        c.add("M", [0, 1])
        c.add("H", [2])
        c.add("M", [2])
        program = compile_frame_program(c, fuse=False)
        measures = [op for op in program.ops if op.kind == OP_M]
        assert [op.rec_start for op in measures] == [0, 2]
        assert program.num_measurements == 3

    def test_two_qubit_targets_split(self):
        c = Circuit()
        c.add("R", [0, 1, 2, 3])
        c.add("CX", [0, 1, 2, 3])
        program = compile_frame_program(c)
        cx = [op for op in program.ops if op.kind == OP_CX][0]
        assert cx.targets.tolist() == [0, 2]
        assert cx.partners.tolist() == [1, 3]

    def test_mr_sets_reset_flag(self):
        c = Circuit()
        c.add("R", [0])
        c.add("MR", [0])
        c.add("M", [0])
        program = compile_frame_program(c, fuse=False)
        measures = [op for op in program.ops if op.kind == OP_M]
        assert [op.reset for op in measures] == [True, False]


class TestFusion:
    def test_disjoint_same_kind_ops_fuse(self):
        c = Circuit()
        c.add("R", [0, 1])
        c.add("H", [0])
        c.add("H", [1])
        program = compile_frame_program(c)
        h_ops = [op for op in program.ops if op.kind == OP_H]
        assert len(h_ops) == 1
        assert sorted(h_ops[0].targets.tolist()) == [0, 1]

    def test_overlapping_ops_do_not_fuse(self):
        c = Circuit()
        c.add("R", [0])
        c.add("H", [0])
        c.add("H", [0])  # H then H = identity; fusing would corrupt it
        program = compile_frame_program(c)
        assert len([op for op in program.ops if op.kind == OP_H]) == 2

    def test_noise_with_different_probability_does_not_fuse(self):
        c = Circuit()
        c.add("X_ERROR", [0], 0.1)
        c.add("X_ERROR", [1], 0.2)
        program = compile_frame_program(c)
        assert len([op for op in program.ops if op.kind == OP_X_ERROR]) == 2

    def test_noise_with_same_probability_fuses(self):
        c = Circuit()
        c.add("X_ERROR", [0], 0.1)
        c.add("X_ERROR", [1], 0.1)
        program = compile_frame_program(c)
        ops = [op for op in program.ops if op.kind == OP_X_ERROR]
        assert len(ops) == 1 and len(ops[0].targets) == 2

    def test_measurements_fuse_only_when_contiguous(self):
        c = Circuit()
        c.add("R", [0, 1])
        c.add("M", [0])
        c.add("M", [1])
        program = compile_frame_program(c)
        measures = [op for op in program.ops if op.kind == OP_M]
        assert len(measures) == 1
        assert measures[0].rec_start == 0
        assert measures[0].targets.tolist() == [0, 1]

    def test_m_and_mr_do_not_fuse(self):
        c = Circuit()
        c.add("R", [0, 1])
        c.add("M", [0])
        c.add("MR", [1])
        program = compile_frame_program(c)
        assert len([op for op in program.ops if op.kind == OP_M]) == 2

    def test_fused_program_is_no_longer_than_source(self):
        mem = build_memory_circuit(5, NoiseParams.uniform(1e-3))
        fused = compile_frame_program(mem.circuit, fuse=True)
        unfused = compile_frame_program(mem.circuit, fuse=False)
        assert len(fused) <= len(unfused)
        # Fusion must not change the op multiset's total target count.
        def total_targets(program, kind):
            return sum(
                len(op.targets) for op in program.ops if op.kind == kind
            )

        for kind in (OP_H, OP_CX, OP_M, OP_DEPOLARIZE2):
            assert total_targets(fused, kind) == total_targets(unfused, kind)


class TestParityTransfer:
    def _naive(self, rec, groups):
        out = np.zeros((rec.shape[0], len(groups)), dtype=bool)
        for k, indices in enumerate(groups):
            for idx in indices:
                out[:, k] ^= rec[:, idx]
        return out

    def test_apply_bool_matches_naive(self):
        rng = np.random.default_rng(0)
        rec = rng.random((50, 12)) < 0.5
        groups = [(0, 3), (1,), (2, 4, 5, 11), (9, 10)]
        transfer = ParityTransfer.from_groups(groups, 12)
        assert (transfer.apply_bool(rec) == self._naive(rec, groups)).all()

    def test_empty_groups_yield_zero(self):
        rng = np.random.default_rng(1)
        rec = rng.random((20, 6)) < 0.5
        groups = [(), (0, 1), (), (5,), ()]
        transfer = ParityTransfer.from_groups(groups, 6)
        out = transfer.apply_bool(rec)
        assert (out == self._naive(rec, groups)).all()
        assert not out[:, [0, 2, 4]].any()

    def test_apply_packed_matches_apply_bool(self):
        rng = np.random.default_rng(2)
        shots = 130  # exercises a ragged final word
        rec = rng.random((shots, 9)) < 0.4
        groups = [(0, 1, 2), (), (3, 8), (4,)]
        transfer = ParityTransfer.from_groups(groups, 9)
        packed = transfer.apply_packed(pack_rows(rec.T.copy()))
        assert (unpack_rows(packed, shots).T == transfer.apply_bool(rec)).all()

    def test_out_of_range_index_rejected(self):
        with pytest.raises(ValueError):
            ParityTransfer.from_groups([(3,)], 2)

    def test_large_group_parity_is_exact(self):
        # A >255-element group exercises uint8 wraparound (mod 256 is
        # parity-safe, but only on purpose).
        rng = np.random.default_rng(3)
        rec = rng.random((40, 300)) < 0.5
        groups = [tuple(range(300))]
        transfer = ParityTransfer.from_groups(groups, 300)
        expected = rec.sum(axis=1) % 2 == 1
        assert (transfer.apply_bool(rec)[:, 0] == expected).all()


class TestPacking:
    def test_pack_unpack_round_trip(self):
        rng = np.random.default_rng(4)
        bits = rng.random((7, 200)) < 0.5
        assert (unpack_rows(pack_rows(bits), 200) == bits).all()

    def test_pack_row_keys_separates_rows(self):
        rng = np.random.default_rng(5)
        bits = rng.random((500, 70)) < 0.2
        keys = pack_row_keys(bits)
        assert keys.shape == (500, 2)
        by_key: dict[bytes, bytes] = {}
        for row, key in zip(bits, keys):
            marker = key.tobytes()
            assert by_key.setdefault(marker, row.tobytes()) == row.tobytes()

    def test_unique_rows_matches_numpy_unique(self):
        rng = np.random.default_rng(6)
        cases = [
            (300, 65, 0.05),
            (400, 64, 0.05),
            (400, 192, 0.01),
            (2000, 65, 0.01),  # heavy duplication: few distinct rows
            (1, 192, 0.05),  # a single row
        ]
        for shots, n, density in cases:
            bits = rng.random((shots, n)) < density
            unique, inverse, counts = unique_rows(bits)
            ref = np.unique(bits, axis=0)
            assert len(unique) == len(ref)
            assert sorted(map(tuple, unique)) == sorted(map(tuple, ref))
            assert (unique[inverse] == bits).all()
            assert counts.sum() == shots
            assert (np.bincount(inverse, minlength=len(unique)) == counts).all()
            # Bit-identical to np.unique over the packed keys: same key
            # order, first occurrences, inverse and counts.
            keys = pack_row_keys(bits)
            _, first, want_inverse, want_counts = np.unique(
                keys, axis=0, return_index=True, return_inverse=True, return_counts=True
            )
            assert (unique == bits[first]).all()
            assert (inverse == want_inverse.reshape(-1)).all()
            assert (counts == want_counts).all()
            assert (unique_row_index(keys)[0] == first).all()

    def test_unique_row_index_on_signed_columns(self):
        rng = np.random.default_rng(7)
        keys = rng.integers(-3, 3, size=(500, 4))
        first, inverse, counts = unique_row_index(keys)
        _, want_first, want_inverse, want_counts = np.unique(
            keys, axis=0, return_index=True, return_inverse=True, return_counts=True
        )
        assert (first == want_first).all()
        assert (inverse == want_inverse.reshape(-1)).all()
        assert (counts == want_counts).all()

    def test_unique_rows_empty_and_zero_width(self):
        unique, inverse, counts = unique_rows(np.zeros((0, 4), dtype=bool))
        assert unique.shape == (0, 4) and len(inverse) == 0 and len(counts) == 0
        unique, inverse, counts = unique_rows(np.zeros((5, 0), dtype=bool))
        assert unique.shape == (1, 0)
        assert (inverse == 0).all()
        assert counts.tolist() == [5]
