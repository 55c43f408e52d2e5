"""XOR parity groups: construction, commit semantics, reconstruction,
space accounting."""

import numpy as np
import pytest

from repro.alloc import NVAllocator
from repro.config import PrecopyPolicy
from repro.core import LocalCheckpointer, XorParityGroup, make_standalone_context
from repro.errors import CheckpointError, PersistenceError
from repro.sim import Engine


def make_group(k=3, chunk_size=4096, phantom=False, seed0=0):
    engine = Engine()
    allocs, datas, cks = [], [], []
    for i in range(k):
        ctx = make_standalone_context(name=f"m{i}", engine=engine)
        a = NVAllocator(f"m{i}", ctx.nvmm, ctx.dram, phantom=phantom)
        ch = a.nvalloc("grid", chunk_size)
        if phantom:
            ch.touch()
            datas.append(None)
        else:
            d = np.random.default_rng(seed0 + i).integers(0, 256, chunk_size).astype(np.uint8)
            ch.write(0, d)
            datas.append(d)
        ck = LocalCheckpointer(ctx, a, PrecopyPolicy(mode="none"))
        p = engine.process(ck.checkpoint(blocking=False))
        engine.run()
        assert p.ok
        allocs.append(a)
        cks.append(ck)
    parity_ctx = make_standalone_context(name="pnode", engine=engine)
    group = XorParityGroup(allocs, parity_ctx)
    return engine, allocs, datas, cks, group


class TestConstruction:
    def test_needs_two_members(self):
        engine = Engine()
        ctx = make_standalone_context(name="m0", engine=engine)
        a = NVAllocator("m0", ctx.nvmm, ctx.dram)
        with pytest.raises(CheckpointError):
            XorParityGroup([a], ctx)

    def test_space_ratio_is_one_over_k(self):
        for k in (2, 3, 5):
            _, _, _, _, group = make_group(k=k)
            assert group.space_per_member_ratio == pytest.approx(1.0 / k)

    def test_parity_bytes_per_round_is_one_chunk_set(self):
        _, allocs, _, _, group = make_group(k=3, chunk_size=8192)
        assert group.parity_bytes_per_round == 8192  # not 3 x 8192

    def test_uncommitted_members_excluded(self):
        engine, allocs, datas, cks, group = make_group(k=3)
        extra = allocs[0].nvalloc("lonely", 1024)  # only member 0 has it
        group.update_parity()
        assert "lonely" not in group._staged


class TestReconstruction:
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_exact_for_every_member(self, k):
        _, allocs, datas, _, group = make_group(k=k, seed0=10)
        group.update_parity()
        group.commit()
        for i, member in enumerate(allocs):
            rebuilt = group.reconstruct(member, "grid")
            assert np.array_equal(rebuilt, datas[i])

    def test_uncommitted_parity_rejected(self):
        _, allocs, _, _, group = make_group()
        group.update_parity()  # staged, not committed
        with pytest.raises(CheckpointError):
            group.reconstruct(allocs[0], "grid")

    def test_foreign_member_rejected(self):
        engine, allocs, _, _, group = make_group()
        ctx = make_standalone_context(name="other", engine=engine)
        stranger = NVAllocator("other", ctx.nvmm, ctx.dram)
        with pytest.raises(CheckpointError):
            group.reconstruct(stranger, "grid")

    def test_parity_updates_track_new_commits(self):
        engine, allocs, datas, cks, group = make_group(seed0=20)
        group.update_parity()
        group.commit()
        # member 1 writes new data and re-checkpoints
        new = np.full(4096, 0x5A, dtype=np.uint8)
        allocs[1].chunk("grid").write(0, new)
        p = engine.process(cks[1].checkpoint(blocking=False))
        engine.run()
        assert p.ok
        group.update_parity()
        group.commit()
        assert np.array_equal(group.reconstruct(allocs[1], "grid"), new)

    def test_two_version_parity_flips(self):
        engine, allocs, datas, cks, group = make_group()
        group.update_parity()
        group.commit()
        assert group.committed["grid"] == 0
        group.update_parity()
        group.commit()
        assert group.committed["grid"] == 1

    def test_stale_parity_still_reconstructs_old_state(self):
        """The classic consistency property: parity committed at time T
        reconstructs the members' time-T data even after they move on
        (if they also keep their time-T versions)."""
        engine, allocs, datas, cks, group = make_group(seed0=30)
        group.update_parity()
        group.commit()
        rebuilt = group.reconstruct(allocs[2], "grid")
        assert np.array_equal(rebuilt, datas[2])


class TestPhantomMode:
    def test_phantom_accounts_sizes(self):
        _, allocs, _, _, group = make_group(k=3, phantom=True, chunk_size=1 << 20)
        written = group.update_parity()
        assert written == 1 << 20
        group.commit()
        assert group.recovery_read_bytes == 3 * (1 << 20)


class TestAccounting:
    def test_recovery_tax(self):
        """Erasure reads K x the data at recovery vs replication's 1x."""
        _, allocs, _, _, group = make_group(k=4, chunk_size=8192)
        group.update_parity()
        group.commit()
        assert group.recovery_read_bytes == 4 * 8192

    def test_parity_bytes_written_accumulates(self):
        _, _, _, _, group = make_group(chunk_size=2048)
        group.update_parity()
        group.update_parity()
        assert group.parity_bytes_written == 2 * 2048


class TestParityRegionErrors:
    def test_unrelated_realloc_error_propagates(self, monkeypatch):
        """A resize failure of an existing parity region surfaces as
        itself instead of being swallowed into a second nvmmap of the
        same region."""
        engine, allocs, datas, cks, group = make_group(k=2)
        group.update_parity()
        for a in allocs:
            a.nvrealloc("grid", 8192)

        def broken(pid, name, nbytes):
            raise PersistenceError("store resize failed")

        monkeypatch.setattr(group.parity_ctx.nvmm, "nvmrealloc", broken)
        with pytest.raises(PersistenceError, match="store resize failed"):
            group.update_parity()
