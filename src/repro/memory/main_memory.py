"""Main memory: a flat 1-D byte array with transactional timing.

Data access is always performed against this array (the cache models timing
only, never holds a divergent copy), which keeps the simulation trivially
coherent and deterministic — a prerequisite for the paper's backward
simulation scheme.
"""

from __future__ import annotations

import struct
from typing import Union

from repro.errors import MemoryAccessError
from repro.isa.bits import sign_extend
from repro.memory.transaction import MemoryTransaction

Number = Union[int, float]


#: checkpoint page granularity (bytes, power of two): small enough that a
#: store-heavy loop touches few pages, large enough that the per-page
#: bookkeeping stays negligible (64 KiB -> 64 pages)
PAGE_SIZE = 1024
_PAGE_SHIFT = PAGE_SIZE.bit_length() - 1


class MainMemory:
    """Byte-addressable memory with configurable load/store latencies.

    Checkpoints are **page-compressed**: every write dirties its page's
    version counter, and :meth:`save_state` freezes only pages written
    since the last freeze, sharing every clean page's immutable blob with
    earlier checkpoints.  A checkpoint therefore copies O(pages touched)
    instead of the full image, which is what lets the checkpoint ring
    (``repro.sim.state.CheckpointRing``) keep dozens of 64 KiB machines
    around for O(K) time travel.
    """

    def __init__(self, capacity: int = 64 * 1024,
                 load_latency: int = 1, store_latency: int = 1):
        if capacity <= 0:
            raise ValueError("memory capacity must be positive")
        self.capacity = capacity
        self.load_latency = max(0, int(load_latency))
        self.store_latency = max(0, int(store_latency))
        self.data = bytearray(capacity)
        #: total completed transactions (for the statistics page)
        self.load_count = 0
        self.store_count = 0
        self.bytes_read = 0
        self.bytes_written = 0
        #: dirty counter (see repro.sim.state): bumped on every data write
        self.version = 0
        #: per-page dirty counters + frozen (version, blob) cache backing
        #: O(pages-touched) checkpoints
        self._page_count = (capacity + PAGE_SIZE - 1) >> _PAGE_SHIFT
        self._page_versions = [0] * self._page_count
        self._page_blobs: list = [None] * self._page_count

    # -- page-level dirty tracking ---------------------------------------
    def _dirty_range(self, address: int, size: int) -> None:
        versions = self._page_versions
        for page in range(address >> _PAGE_SHIFT,
                          ((address + size - 1) >> _PAGE_SHIFT) + 1):
            versions[page] += 1

    def _dirty_all(self) -> None:
        versions = self._page_versions
        for page in range(self._page_count):
            versions[page] += 1

    # -- bounds ---------------------------------------------------------
    def check_range(self, address: int, size: int) -> None:
        """Raise :class:`MemoryAccessError` for an unauthorized access."""
        if address < 0 or address + size > self.capacity:
            raise MemoryAccessError(
                f"access to unauthorized address {address:#x} "
                f"(size {size}, capacity {self.capacity:#x})")

    # -- raw data access (architectural state) ---------------------------
    def read_bytes(self, address: int, size: int) -> bytes:
        self.check_range(address, size)
        return bytes(self.data[address:address + size])

    def write_bytes(self, address: int, payload: bytes) -> None:
        self.check_range(address, len(payload))
        self.data[address:address + len(payload)] = payload
        self.version += 1
        if payload:
            self._dirty_range(address, len(payload))

    def read_int(self, address: int, size: int, signed: bool = True) -> int:
        raw = self.read_bytes(address, size)
        value = int.from_bytes(raw, "little")
        return sign_extend(value, 8 * size) if signed else value

    def write_int(self, address: int, value: int, size: int) -> None:
        self.write_bytes(address,
                         (value & ((1 << (8 * size)) - 1)).to_bytes(size, "little"))

    def read_float(self, address: int) -> float:
        return struct.unpack("<f", self.read_bytes(address, 4))[0]

    def write_float(self, address: int, value: float) -> None:
        self.write_bytes(address, struct.pack("<f", value))

    def read_double(self, address: int) -> float:
        return struct.unpack("<d", self.read_bytes(address, 8))[0]

    def write_double(self, address: int, value: float) -> None:
        self.write_bytes(address, struct.pack("<d", value))

    # -- transactional timing interface ----------------------------------
    def register(self, tx: MemoryTransaction, cycle: int) -> MemoryTransaction:
        """Register *tx* at *cycle*; stamps its completion time and performs
        the data movement immediately (timing and data are decoupled)."""
        self.check_range(tx.address, tx.size)
        tx.issued_cycle = cycle
        if tx.is_store:
            tx.finished_cycle = cycle + self.store_latency
            if tx.data:
                self.write_bytes(tx.address, tx.data)
            self.store_count += 1
            self.bytes_written += tx.size
        else:
            tx.finished_cycle = cycle + self.load_latency
            tx.data = self.read_bytes(tx.address, tx.size)
            self.load_count += 1
            self.bytes_read += tx.size
        return tx

    # -- next-level interface (used by caches to charge miss traffic) ------
    def fill_cost(self, address: int, size: int, cycle: int,
                  instruction_id: int = -1) -> int:
        """Cost of fetching *size* bytes (a cache line fill)."""
        tx = MemoryTransaction(address=address, size=size, is_store=False,
                               instruction_id=instruction_id)
        self.register(tx, cycle)
        return self.load_latency

    def writeback_cost(self, address: int, size: int, cycle: int,
                       instruction_id: int = -1) -> int:
        """Cost of writing *size* bytes back (eviction / write-through)."""
        tx = MemoryTransaction(address=address, size=size, is_store=True,
                               is_line_flush=True,
                               instruction_id=instruction_id)
        self.register(tx, cycle)
        return self.store_latency

    # -- lifecycle --------------------------------------------------------
    def load_image(self, image: bytes, base: int = 0) -> None:
        """Install an initial memory image (program data segment)."""
        self.write_bytes(base, bytes(image))

    def set_image(self, image: bytearray) -> None:
        """Adopt *image* as the whole memory content (simulation init).

        Replaces the backing array wholesale, so every page is dirtied and
        every frozen checkpoint blob is dropped."""
        if len(image) != self.capacity:
            raise ValueError(f"image size {len(image)} != capacity "
                             f"{self.capacity}")
        self.data = image if isinstance(image, bytearray) \
            else bytearray(image)
        self.version += 1
        self._dirty_all()
        self._page_blobs = [None] * self._page_count

    def reset(self) -> None:
        self.data = bytearray(self.capacity)
        self.load_count = self.store_count = 0
        self.bytes_read = self.bytes_written = 0
        self.version += 1
        self._dirty_all()
        self._page_blobs = [None] * self._page_count

    # -- state-engine protocol (repro.sim.state) --------------------------
    def save_state(self) -> dict:
        """Checkpoint the memory in O(pages touched since the last save).

        Clean pages reuse the immutable blob frozen by an earlier save
        (shared by reference across checkpoints); only pages whose dirty
        counter moved are copied out of the live array."""
        data = self.data
        blobs = self._page_blobs
        versions = self._page_versions
        pages = []
        for page in range(self._page_count):
            cached = blobs[page]
            version = versions[page]
            if cached is None or cached[0] != version:
                start = page << _PAGE_SHIFT
                cached = (version,
                          bytes(data[start:min(start + PAGE_SIZE,
                                               self.capacity)]))
                blobs[page] = cached
            pages.append(cached[1])
        return {
            "pages": tuple(pages),
            "counters": (self.load_count, self.store_count,
                         self.bytes_read, self.bytes_written),
        }

    def restore_state(self, state: dict) -> None:
        if "pages" in state:
            data = self.data
            blobs = self._page_blobs
            versions = self._page_versions
            for page, blob in enumerate(state["pages"]):
                cached = blobs[page]
                if cached is not None and cached[1] is blob \
                        and cached[0] == versions[page]:
                    # the live page is bit-identical to the checkpoint's
                    # blob (common during replay): skip the copy and keep
                    # the frozen blob valid for future saves
                    continue
                start = page << _PAGE_SHIFT
                data[start:start + len(blob)] = blob
                versions[page] += 1
                blobs[page] = (versions[page], blob)
        else:  # pre-paging snapshot shape (external callers)
            self.data[:] = state["data"]
            self._dirty_all()
            self._page_blobs = [None] * self._page_count
        (self.load_count, self.store_count,
         self.bytes_read, self.bytes_written) = state["counters"]
        self.version += 1

    def dump(self, start: int = 0, length: int = 256, width: int = 16) -> str:
        """Hex dump used by the memory pop-up window (Fig. 2)."""
        end = min(self.capacity, start + length)
        lines = []
        for base in range(start, end, width):
            chunk = self.data[base:min(base + width, end)]
            hexpart = " ".join(f"{b:02x}" for b in chunk)
            text = "".join(chr(b) if 32 <= b < 127 else "." for b in chunk)
            lines.append(f"{base:#08x}  {hexpart:<{width * 3}} {text}")
        return "\n".join(lines)

    def stats(self) -> dict:
        return {
            "loads": self.load_count,
            "stores": self.store_count,
            "bytesRead": self.bytes_read,
            "bytesWritten": self.bytes_written,
        }
