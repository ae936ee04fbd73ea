"""Protocol-dataclass tests: the wire format between clients and servers."""

import pytest

from repro.armci.requests import (
    AccRequest,
    FenceRequest,
    GetRequest,
    LockRequest,
    PutRequest,
    RmwRequest,
    UnlockRequest,
    RMW_OPS,
)


class TestPutRequest:
    def test_contiguous_total_cells(self):
        req = PutRequest(src_rank=0, dst_rank=1, addr=4, values=[1, 2, 3])
        assert req.total_cells() == 3
        assert req.segments is None

    def test_segmented_total_cells(self):
        req = PutRequest(
            src_rank=0, dst_rank=1,
            segments=[(0, [1, 2]), (10, [3]), (20, [4, 5, 6])],
        )
        assert req.total_cells() == 6

    def test_defaults(self):
        req = PutRequest(src_rank=0, dst_rank=1)
        assert req.values == [] and req.ack is None
        assert req.total_cells() == 0


class TestGetRequest:
    def test_contiguous_total(self):
        assert GetRequest(src_rank=0, dst_rank=1, addr=0, count=5).total_cells() == 5

    def test_segmented_total(self):
        req = GetRequest(src_rank=0, dst_rank=1, segments=[(0, 2), (8, 3)])
        assert req.total_cells() == 5


class TestRmwRequest:
    @pytest.mark.parametrize("op", RMW_OPS)
    def test_all_known_ops_construct(self, op):
        RmwRequest(src_rank=0, dst_rank=1, addr=0, op=op)

    def test_unknown_op_rejected_eagerly(self):
        with pytest.raises(ValueError, match="known"):
            RmwRequest(src_rank=0, dst_rank=1, addr=0, op="xor")

    def test_op_set_covers_paper_additions(self):
        """§3.2.2: pair operations and compare&swap were added for the
        software queuing lock's (rank, address) pointers."""
        assert {"swap_pair", "cas_pair", "cas"} <= set(RMW_OPS)


class TestControlRequests:
    def test_fence_request_fields(self):
        req = FenceRequest(src_rank=3)
        assert req.src_rank == 3 and req.reply is None

    def test_lock_unlock_pairing(self):
        lock = LockRequest(src_rank=1, home_rank=0, base_addr=8)
        unlock = UnlockRequest(src_rank=1, home_rank=0, base_addr=8, ticket=0)
        assert (lock.home_rank, lock.base_addr) == (
            unlock.home_rank, unlock.base_addr
        )

    def test_acc_defaults(self):
        req = AccRequest(src_rank=0, dst_rank=1, addr=0, values=[1.0])
        assert req.scale == 1 and req.ack is None
