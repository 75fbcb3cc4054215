"""Seeded input generators: every input the system under test receives.

Each generator takes a :class:`random.Random` built from the workload name
and the ``--seed``, so one seed always yields the same arrival schedule,
the same programs and data, and the same expected answers.  Seeds change
values and order, not the amount of work: sizes, travel moves and the
order of sort inputs come from fixed sets, and the open loop replays one
fixed arrival path, so runs with different seeds cost about the same and
their spread measures the host, not the inputs.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterator, List, Tuple

#: live interactive sessions (Table I ran 30 users; 32 splits over 2 conns)
SESSIONS = 32
#: requests of one session's life between session/new and session/close
STEPS_PER_LIFE = 40
#: open-loop arrival rate: the paper's 30 users with 1 s think time
#: measured 25.96 transactions/s (Table I, Direct)
ARRIVAL_RATE = 25.0


def rng_for(workload: str, seed: int, *salt: object) -> random.Random:
    """The deterministic generator of one workload, seed and sub-stream."""
    return random.Random(":".join(str(part) for part in
                                  (workload, seed) + salt))


def wrap32(value: int) -> int:
    """Two's-complement 32-bit wrap, as the simulated ``a0`` holds it."""
    value &= 0xFFFFFFFF
    return value - (1 << 32) if value & 0x80000000 else value


def poisson_arrivals(rng: random.Random, duration_s: float, slots: int,
                     connections: int,
                     rate: float = ARRIVAL_RATE) -> List[Tuple[float, int]]:
    """Open-loop schedule: ``(due time, session slot)`` pairs.

    The due times and the connection each arrival lands on are one fixed
    Poisson sample path at *rate* (with uniformly chosen connections),
    the same for every seed; *rng* picks which of the connection's session
    slots (``slot % connections``) it moves.  Tail latency in an open loop
    follows the burst pattern of the arrivals, so a seeded path would
    make seeds disagree by more than the host does."""
    if slots % connections:
        raise ValueError("slots must be a multiple of connections")
    path = random.Random(f"arrivals:{rate}:{connections}")
    out: List[Tuple[float, int]] = []
    t = path.expovariate(rate)
    while t < duration_s:
        connection = path.randrange(connections)
        out.append((t, connection
                    + connections * rng.randrange(slots // connections)))
        t += path.expovariate(rate)
    return out


def travel_moves(rng: random.Random,
                 count: int = STEPS_PER_LIFE) -> List[Tuple[str, float]]:
    """One ``step_travel`` session life in seeded order: 70 % forward and
    20 % back by 1-64 cycles, 10 % seeks to an earlier cycle.

    A life is one fixed multiset of moves (the kinds in exact proportion,
    cycle counts and seek fractions spread evenly), so seeds reorder its
    work without changing the amount.  Forward and back moves carry their
    cycle count; a seek carries the fraction of the current cycle it lands
    on (the client resolves it against the cycle it holds)."""
    forward = round(0.7 * count)
    back = round(0.2 * count)
    seeks = count - forward - back
    moves: List[Tuple[str, float]] = \
        [("step", cycles) for cycles in _even(forward, 1, 64)] \
        + [("back", cycles) for cycles in _even(back, 1, 64)] \
        + [("seek", (k + 0.5) / seeks) for k in range(seeks)]
    rng.shuffle(moves)
    return moves


def _even(count: int, low: int, high: int) -> List[int]:
    """*count* whole numbers spread evenly over ``[low, high]``."""
    if count == 1:
        return [(low + high) // 2]
    return [low + (high - low) * k // (count - 1) for k in range(count)]


# -- C programs ------------------------------------------------------------
QUICKSORT_C = """
extern int data[{n}];

void quicksort(int *a, int lo, int hi) {{
    if (lo >= hi) return;
    int pivot = a[(lo + hi) / 2];
    int i = lo;
    int j = hi;
    while (i <= j) {{
        while (a[i] < pivot) i++;
        while (a[j] > pivot) j--;
        if (i <= j) {{
            int t = a[i];
            a[i] = a[j];
            a[j] = t;
            i++;
            j--;
        }}
    }}
    quicksort(a, lo, j);
    quicksort(a, i, hi);
}}

int main(void) {{
    quicksort(data, 0, {last});
    int check = 0;
    for (int k = 0; k < {n}; k++) check += (k + {salt}) * data[k];
    return check;
}}
"""

MATRIX_C = """
extern int matrix[{cells}];

int sum_row_major(void) {{
    int s = 0;
    for (int i = 0; i < {rows}; i++)
        for (int j = 0; j < {cols}; j++)
            s += matrix[i * {cols} + j];
    return s;
}}

int sum_col_major(void) {{
    int s = 0;
    for (int j = 0; j < {cols}; j++)
        for (int i = 0; i < {rows}; i++)
            s += matrix[i * {cols} + j];
    return s;
}}

int main_row(void) {{
    int s = {salt};
    for (int r = 0; r < {reps}; r++) s += sum_row_major();
    return s;
}}

int main_col(void) {{
    int s = {salt};
    for (int r = 0; r < {reps}; r++) s += sum_col_major();
    return s;
}}
"""


def quicksort_program(values: List[int], salt: int = 1) -> dict:
    """Quicksort over *values*; ``a0`` is a position-weighted checksum of
    the sorted array, so a wrong order gives a wrong answer."""
    n = len(values)
    return {
        "c": QUICKSORT_C.format(n=n, last=n - 1, salt=salt),
        "entry": "main",
        "memory": [{"name": "data", "dtype": "word", "alignment": 4,
                    "values": list(values)}],
        "expected": wrap32(sum((k + salt) * v
                               for k, v in enumerate(sorted(values)))),
    }


def matrix_program(values: List[int], rows: int, cols: int,
                   order: str = "row", reps: int = 1,
                   salt: int = 0) -> dict:
    """The co-design matrix kernel (row- or column-major traversal of one
    ``rows`` x ``cols`` word matrix, summed *reps* times)."""
    return {
        "c": MATRIX_C.format(cells=rows * cols, rows=rows, cols=cols,
                             reps=reps, salt=salt),
        "entry": f"main_{order}",
        "memory": [{"name": "matrix", "dtype": "word", "alignment": 16,
                    "values": list(values)}],
        "expected": wrap32(salt + reps * sum(values)),
    }


def words(rng: random.Random, count: int, high: int = 999) -> List[int]:
    return [rng.randint(0, high) for _ in range(count)]


def shaped_words(rng: random.Random, count: int,
                 high: int = 999) -> List[int]:
    """*count* distinct seeded values laid out in one fixed order per
    *count*: a comparison sort takes the same path for every seed, so
    only the values (and the answer) change, not the work."""
    values = sorted(rng.sample(range(high + 1), count))
    order = list(range(count))
    random.Random(f"shape:{count}").shuffle(order)
    return [values[index] for index in order]


def session_programs(rng: random.Random, sessions: int,
                     count: int) -> List[int]:
    """``step_full``: which of *count* load-test programs each slot runs."""
    return [rng.randrange(count) for _ in range(sessions)]


def travel_programs(rng: random.Random,
                    side: int = 16) -> List[Tuple[dict, int]]:
    """``step_travel``: quicksort on *side* seeded words (two data sets,
    O1) and the *side* x *side* matrix kernel in both traversal orders
    (two matrices, O2), as ``(program, optimization level)`` pairs."""
    cells = side * side
    return [(quicksort_program(shaped_words(rng, side)), 1),
            (quicksort_program(shaped_words(rng, side)), 1),
            (matrix_program(words(rng, cells), side, side, "row"), 2),
            (matrix_program(words(rng, cells), side, side, "col"), 2)]


# -- assembly ----------------------------------------------------------------
HEAVY_KERNEL = """
    addi sp, sp, -256
    li   a0, 0
    li   s2, 0
rep:
    li   t0, 0
outer:
    slli t1, t0, 2
    add  t1, t1, sp
    li   t6, {scale}
    mul  t4, t0, t6
    addi t4, t4, {offset}
    sw   t4, 0(t1)
    li   t2, 0
inner:
    slli t3, t2, 2
    add  t3, t3, sp
    lw   t4, 0(t3)
    mul  t5, t4, t0
    add  a0, a0, t5
    addi t2, t2, 1
    blt  t2, t0, inner
    addi t0, t0, 1
    li   t6, {n}
    blt  t0, t6, outer
    addi s2, s2, 1
    li   t6, {reps}
    blt  s2, t6, rep
    ebreak
"""


def heavy_program(rng: random.Random, reps: int, n: int = 48) -> dict:
    """The explore-scaling kernel (triangular nested loop over an *n*-word
    stack array, *n* <= 64) with seeded element values; the answer lands
    in ``a0``."""
    if not 1 <= n <= 64:
        raise ValueError("the kernel's stack frame holds 64 words")
    scale, offset = rng.randint(3, 29), rng.randint(1, 999)
    once = sum((scale * j + offset) * i for i in range(n) for j in range(i))
    return {"source": HEAVY_KERNEL.format(scale=scale, offset=offset,
                                          reps=reps, n=n),
            "expected": wrap32(reps * once)}


# -- workload-level generators --------------------------------------------
#: the edit loop's sizes per optimization level: every block of eight
#: iterations runs each level once per kernel, and the size rotates by one
#: per block; O0 code runs ~3x the cycles of O1-O3, so it gets smaller data
EDIT_SORT_SIZES = ((3, 4, 5, 6),) + ((6, 7, 8, 9),) * 3
EDIT_MATRIX_SHAPES = (((4, 4), (4, 6), (6, 4), (6, 6)),) \
    + (((6, 6), (6, 8), (8, 6), (8, 8)),) * 3


def edit_stream(rng: random.Random) -> Iterator[dict]:
    """The editor's endless compile+run requests: alternating kernels,
    levels cycling O0-O3, sizes in a fixed rotation, seeded data and a
    seeded per-iteration constant so no two sources are identical.  The
    order of the work is the same for every seed, so a run's latencies
    depend on the host, not on which programs the seed drew."""
    salt = rng.randint(1, 5000)
    for index in itertools.count():
        level = index // 2 % 4
        size = (level + index // 8) % 4
        if index % 2 == 0:
            program = quicksort_program(
                shaped_words(rng, EDIT_SORT_SIZES[level][size]), salt + index)
        else:
            rows, cols = EDIT_MATRIX_SHAPES[level][size]
            program = matrix_program(words(rng, rows * cols), rows, cols,
                                     order=("row", "col")[level % 2],
                                     salt=salt + index)
        program["level"] = level
        yield program


#: sweep grid (the co-design question: pipeline width x L1 size)
SWEEP_WIDTHS = (1, 2, 4)
SWEEP_LINE_COUNTS = (4, 16, 64)
#: kernel repetitions per job, which size a sweep (about 3 s on the
#: reference host) without adding grid points
SWEEP_MATRIX_REPS = 2
SWEEP_HEAVY_REPS = 1


def sweep_spec(rng: random.Random, side: int = 16,
               widths: Tuple[int, ...] = SWEEP_WIDTHS) -> Tuple[dict, dict]:
    """The co-design sweep spec and the expected ``a0`` per program.

    A 16x16 word matrix (1 KiB) straddles the swept L1 sizes: 4 and 16
    lines of 16 B hold a fraction of it, 64 lines hold all of it.  The
    heavy kernel's array is ``3 * side`` words."""
    matrix = words(rng, side * side)
    programs, expected = [], {}
    for order in ("row", "col"):
        program = matrix_program(matrix, side, side, order=order,
                                 reps=SWEEP_MATRIX_REPS)
        name = f"matrix_{order}"
        programs.append({"name": name, "c": program["c"], "optimizeLevel": 2,
                         "entry": program["entry"],
                         "memory": program["memory"]})
        expected[name] = program["expected"]
    heavy = heavy_program(rng, SWEEP_HEAVY_REPS, 3 * side)
    programs.append({"name": "heavy", "source": heavy["source"]})
    expected["heavy"] = heavy["expected"]
    spec = {
        "name": "codesign",
        "programs": programs,
        "axes": [
            {"name": "width",
             "values": [{"config.buffers.fetchWidth": w,
                         "config.buffers.commitWidth": w} for w in widths],
             "labels": [f"w{w}" for w in widths]},
            {"name": "lines", "path": "config.cache.lineCount",
             "values": list(SWEEP_LINE_COUNTS)},
        ],
    }
    return spec, expected
