"""Differential state-machine test of the NAND array.

:class:`NandArray` keeps page data and spare stamps in flat lists and
derives page state from each block's write pointer.  The machine below
drives it side by side with :class:`ReferenceNand`, a per-page model kept
only here: every page is a record with its own ``state``, ``data``,
``spare`` and ``failed`` fields, written out the plain way.  Each side
gets its own :class:`FaultPlan` and every media fault is armed on both,
so the fault hooks see the same operation sequence.  After every step
the return value (or the exception type and message), every page's
state and every counter must agree.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, invariant,
                                 precondition, rule)

from repro.errors import (EraseFailError, ProgramError, ProgramFailError,
                          ReadError, UncorrectableReadError)
from repro.flash.geometry import FlashGeometry
from repro.flash.nand import NandArray, PageState
from repro.sim.faults import (CORRUPT_PAYLOAD, CorruptRead, EraseFault,
                              FaultPlan, ProgramFault, ReadFault)

GEOMETRY = FlashGeometry(page_size=4096, pages_per_block=8, block_count=4,
                         channel_count=2)
PPB = GEOMETRY.pages_per_block
TOTAL = GEOMETRY.total_pages
BLOCKS = GEOMETRY.block_count

COUNTERS = ("total_programs", "total_reads", "total_erases",
            "failed_reads", "failed_programs", "failed_erases")


class _RefPage:
    def __init__(self):
        self.state = PageState.ERASED
        self.data = None
        self.spare = None
        self.failed = False


class ReferenceNand:
    """One record per page with an explicit state field."""

    def __init__(self, geometry, faults):
        self.geometry = geometry
        self.faults = faults
        self.pages = [_RefPage() for _ in range(geometry.total_pages)]
        self.next_offset = [0] * geometry.block_count
        self.erase_counts = [0] * geometry.block_count
        self.channel_ops = [0] * geometry.channel_count
        for name in COUNTERS:
            setattr(self, name, 0)

    def _channel_op(self, block):
        self.channel_ops[block % self.geometry.channel_count] += 1

    def program(self, ppn, data, spare=None):
        self.geometry.check_ppn(ppn)
        page = self.pages[ppn]
        if page.state is not PageState.ERASED:
            raise ProgramError(f"PPN {ppn} already programmed; erase block first")
        block = ppn // self.geometry.pages_per_block
        offset = ppn % self.geometry.pages_per_block
        expected = self.next_offset[block]
        if offset != expected:
            raise ProgramError(
                f"out-of-order program in block {block}: page offset {offset}, "
                f"expected {expected}")
        media = self.faults.media
        if media.active:
            try:
                media.on_program(ppn)
            except ProgramFailError:
                page.state = PageState.PROGRAMMED
                page.failed = True
                self.next_offset[block] = offset + 1
                self.total_programs += 1
                self._channel_op(block)
                self.failed_programs += 1
                raise
        page.state = PageState.PROGRAMMED
        page.data = data
        page.spare = spare
        self.next_offset[block] = offset + 1
        self.total_programs += 1
        self._channel_op(block)

    def read(self, ppn):
        self.geometry.check_ppn(ppn)
        page = self.pages[ppn]
        if page.state is not PageState.PROGRAMMED:
            raise ReadError(f"PPN {ppn} is erased; nothing to read")
        block = ppn // self.geometry.pages_per_block
        self.total_reads += 1
        self._channel_op(block)
        if page.failed:
            self.failed_reads += 1
            raise UncorrectableReadError(
                f"PPN {ppn} failed during program; payload unreadable")
        media = self.faults.media
        if media.active:
            try:
                corrupt = media.on_read(ppn, self.erase_counts[block])
            except UncorrectableReadError:
                self.failed_reads += 1
                raise
            if corrupt:
                return (CORRUPT_PAYLOAD, ppn)
        return page.data

    def read_spare(self, ppn):
        self.geometry.check_ppn(ppn)
        page = self.pages[ppn]
        if page.state is not PageState.PROGRAMMED:
            raise ReadError(f"PPN {ppn} is erased; no spare data")
        return page.spare

    def erase(self, block):
        self.geometry.check_block(block)
        media = self.faults.media
        if media.active:
            try:
                media.on_erase(block)
            except EraseFailError:
                self.failed_erases += 1
                raise
        for ppn in range(block * self.geometry.pages_per_block,
                         (block + 1) * self.geometry.pages_per_block):
            self.pages[ppn] = _RefPage()
        self.next_offset[block] = 0
        self.erase_counts[block] += 1
        self.total_erases += 1
        self._channel_op(block)

    def state_of(self, ppn):
        self.geometry.check_ppn(ppn)
        return self.pages[ppn].state

    def is_programmed(self, ppn):
        self.geometry.check_ppn(ppn)
        page = self.pages[ppn]
        return page.state is PageState.PROGRAMMED and not page.failed

    def is_failed(self, ppn):
        self.geometry.check_ppn(ppn)
        return self.pages[ppn].failed

    def programmed_pages_in_block(self, block):
        self.geometry.check_block(block)
        return self.next_offset[block]

    def scan_block(self, block):
        self.geometry.check_block(block)
        out = []
        for ppn in range(block * self.geometry.pages_per_block,
                         (block + 1) * self.geometry.pages_per_block):
            page = self.pages[ppn]
            if page.state is PageState.PROGRAMMED and not page.failed:
                out.append((ppn, page.spare))
        return out


def _outcome(call, *args):
    try:
        return ("ok", call(*args))
    except Exception as exc:   # compared by type and message
        return (type(exc), str(exc))


ppns = st.integers(min_value=-1, max_value=TOTAL)
blocks = st.integers(min_value=-1, max_value=BLOCKS)
live_blocks = st.integers(min_value=0, max_value=BLOCKS - 1)
payloads = st.one_of(st.none(), st.integers(), st.text(max_size=3))
spares = st.one_of(st.none(), st.tuples(st.integers(0, 99), st.integers(0, 9)))
aheads = st.integers(min_value=1, max_value=4)


class NandMachine(RuleBasedStateMachine):

    def __init__(self):
        super().__init__()
        self.nand = NandArray(GEOMETRY, FaultPlan())
        self.ref = ReferenceNand(GEOMETRY, FaultPlan())

    def _both(self, method, *args):
        got = _outcome(getattr(self.nand, method), *args)
        want = _outcome(getattr(self.ref, method), *args)
        assert got == want, (method, args)
        return got

    def _arm(self, make):
        self.nand.faults.media.arm(make())
        self.ref.faults.media.arm(make())

    def _nth(self, op, ahead):
        """``nth`` of the ``ahead``-th operation of kind ``op`` from now
        (the fault set numbers operations from when it starts counting)."""
        return self.ref.faults.media.op_counts[op] + ahead

    # Programs ---------------------------------------------------------

    @rule(block=live_blocks, data=payloads, spare=spares)
    def program_in_order(self, block, data, spare):
        offset = self.ref.next_offset[block]
        if offset < PPB:
            self._both("program", block * PPB + offset, data, spare)

    @rule(block=live_blocks, skip=st.integers(1, PPB - 1), data=payloads)
    def program_out_of_order(self, block, skip, data):
        offset = self.ref.next_offset[block] + skip
        if offset < PPB:
            outcome = self._both("program", block * PPB + offset, data)
            assert outcome[0] is ProgramError
            assert "out-of-order" in outcome[1]

    @precondition(lambda self: any(self.ref.next_offset))
    @rule(block=live_blocks, back=st.integers(0, PPB - 1), data=payloads)
    def program_overwrite(self, block, back, data):
        written = self.ref.next_offset[block]
        if written:
            outcome = self._both("program",
                                 block * PPB + min(back, written - 1), data)
            assert outcome[0] is ProgramError
            assert "already programmed" in outcome[1]

    @rule(ppn=ppns, data=payloads, spare=spares)
    def program_anywhere(self, ppn, data, spare):
        self._both("program", ppn, data, spare)

    # Reads and queries ------------------------------------------------

    @rule(ppn=ppns)
    def read(self, ppn):
        self._both("read", ppn)

    @precondition(lambda self: any(self.ref.next_offset))
    @rule(block=live_blocks, back=st.integers(0, PPB - 1))
    def read_programmed(self, block, back):
        written = self.ref.next_offset[block]
        if written:
            self._both("read", block * PPB + min(back, written - 1))

    @rule(ppn=ppns)
    def read_spare(self, ppn):
        self._both("read_spare", ppn)

    @rule(ppn=ppns)
    def page_queries(self, ppn):
        for method in ("state_of", "is_programmed", "is_failed"):
            self._both(method, ppn)

    @rule(block=blocks)
    def block_queries(self, block):
        self._both("scan_block", block)
        self._both("programmed_pages_in_block", block)

    @rule(block=blocks)
    def erase(self, block):
        self._both("erase", block)

    # Media faults -----------------------------------------------------

    @rule(ahead=aheads)
    def arm_program_fault(self, ahead):
        nth = self._nth("program", ahead)
        self._arm(lambda: ProgramFault(nth=nth))

    @rule(ahead=aheads, block=st.one_of(st.none(), live_blocks))
    def arm_erase_fault(self, ahead, block):
        if block is None:
            nth = self._nth("erase", ahead)
            self._arm(lambda: EraseFault(nth=nth))
        else:
            self._arm(lambda: EraseFault(block=block))

    @rule(ahead=aheads, retries=st.one_of(st.none(), st.integers(1, 2)))
    def arm_read_fault(self, ahead, retries):
        nth = self._nth("read", ahead)
        self._arm(lambda: ReadFault(nth=nth, retries_to_clear=retries))

    @rule(ahead=aheads)
    def arm_corrupt_read(self, ahead):
        nth = self._nth("read", ahead)
        self._arm(lambda: CorruptRead(nth=nth))

    @rule()
    def disarm(self):
        self.nand.faults.media.disarm()
        self.ref.faults.media.disarm()

    # Agreement after every step ---------------------------------------

    @invariant()
    def counters_agree(self):
        for name in COUNTERS:
            assert getattr(self.nand, name) == getattr(self.ref, name), name
        assert self.nand.channel_ops == self.ref.channel_ops
        assert self.nand.erase_counts == self.ref.erase_counts
        assert (self.nand.faults.media.op_counts
                == self.ref.faults.media.op_counts)

    @invariant()
    def pages_agree(self):
        for ppn in range(TOTAL):
            assert self.nand.state_of(ppn) is self.ref.state_of(ppn), ppn
            assert self.nand.is_failed(ppn) == self.ref.is_failed(ppn), ppn
        for block in range(BLOCKS):
            assert self.nand.scan_block(block) == self.ref.scan_block(block)


TestNandMachine = NandMachine.TestCase
TestNandMachine.settings = settings(max_examples=60, stateful_step_count=60,
                                    deadline=None)

