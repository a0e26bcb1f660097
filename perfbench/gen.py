"""Seeded input generators and the independent known answers they carry.

Generators draw from ``random.Random`` streams named by the benchmark seed,
so the same seed gives the same designs.  The known answers here are
computed from the generator's own graph and codes, never by calling
fsmguard.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass

# Rule names as fsmguard reports them; kept as plain strings so the oracle
# does not depend on the package under test.
HD = "HD_NOT_ONE"
FIF = "FIF_NONZERO"

LADDER = (8, 16, 32, 64, 128, 256, 512, 1024)


@dataclass(frozen=True)
class Fsm:
    """A generated one-module FSM: names in declaration order, codes as ints,
    guarded edges as (source index, target index, guard), and a hold self
    edge in every arm."""

    name: str
    width: int
    codes: tuple[int, ...]
    edges: tuple[tuple[int, int, str], ...]
    protected: str
    inputs: tuple[str, ...]

    @property
    def states(self) -> tuple[str, ...]:
        return tuple(f"S{i}" for i in range(len(self.codes)))

    def verilog(self) -> str:
        n = len(self.codes)
        hi = self.width - 1
        lines = ["module " + self.name + " (", "    input clk,", "    input reset,"]
        lines += [f"    input {sig}," for sig in self.inputs]
        lines += ["    output reg busy", ");", ""]
        for i, code in enumerate(self.codes):
            lines.append(f"parameter S{i} = {self.width}'b{code:0{self.width}b};")
        lines += [
            "",
            f"reg [{hi}:0] current_state;",
            f"reg [{hi}:0] next_state;",
            "",
            "always @(posedge clk or posedge reset) begin",
            "    if (reset) begin",
            "        current_state <= S0;",
            "    end else begin",
            "        current_state <= next_state;",
            "    end",
            "end",
            "",
            "always @(*) begin",
            "    case (current_state)",
        ]
        out: dict[int, list[tuple[int, str]]] = {i: [] for i in range(n)}
        for src, dst, guard in self.edges:
            out[src].append((dst, guard))
        for i in range(n):
            lines.append(f"        S{i}: begin")
            lines.append(f"            busy = {i % 2};")
            keyword = "if"
            for dst, guard in out[i]:
                lines.append(f"            {keyword} ({guard}) next_state = S{dst};")
                keyword = "else if"
            if out[i]:
                lines.append(f"            else next_state = S{i};")
            else:
                lines.append(f"            next_state = S{i};")
            lines.append("        end")
        lines += [
            "        default: begin",
            "            busy = 0;",
            "            next_state = S0;",
            "        end",
            "    endcase",
            "end",
            "",
            "endmodule",
            "",
        ]
        return "\n".join(lines)


def _distinct_codes(rng: random.Random, n: int, width: int) -> tuple[int, ...]:
    return tuple(rng.sample(range(2 ** width), n))


def ring_fsm(rng: random.Random, n: int) -> Fsm:
    """The scaling ring: state i goes to i+1 on ``go0``, to a seeded chord
    (never itself or i+1) on ``go1``, and otherwise holds.  Width is
    ceil(log2 n)+1, so at least half the codes are unused and the default
    arm is what handles them."""
    width = math.ceil(math.log2(n)) + 1
    edges = []
    for i in range(n):
        edges.append((i, (i + 1) % n, "go0"))
        edges.append((i, (i + 2 + rng.randrange(n - 2)) % n, "go1"))
    protected = f"S{rng.randrange(n)}"
    return Fsm(f"ring{n}", width, _distinct_codes(rng, n, width), tuple(edges),
               protected, ("go0", "go1"))


def fsm_shape(rng: random.Random, n: int) -> tuple[tuple[tuple[int, int, str], ...], int]:
    """A strongly connected graph for the re-encoding search: a ring over
    all n states plus a chord from some states, and a protected state that
    is never the reset state.  Returns (edges, protected index)."""
    edges = []
    for i in range(n):
        edges.append((i, (i + 1) % n, "a"))
        chord = rng.randrange(n)
        if chord not in (i, (i + 1) % n):
            edges.append((i, chord, "b"))
    return tuple(edges), rng.randrange(1, n)


def small_fsm(shape: tuple[tuple[tuple[int, int, str], ...], int],
              rng: random.Random, n: int, width: int) -> Fsm:
    """The FSM of ``shape`` with codes drawn from ``rng`` until at least one
    unprotected edge breaks HD=1."""
    edges, p = shape
    while True:
        codes = _distinct_codes(rng, n, width)
        if any(bin(codes[s] ^ codes[d]).count("1") != 1
               for s, d, _ in edges if p not in (s, d)):
            return Fsm(f"rand{n}w{width}", width, codes, edges, f"S{p}", ("a", "b"))


def hd_violations(fsm: Fsm, codes: dict[str, int]) -> list[tuple[str, str]]:
    """Unprotected non-self edges of ``fsm`` whose endpoints, under
    ``codes``, are not at Hamming distance 1."""
    names = fsm.states
    return sorted((names[s], names[d]) for s, d, _ in fsm.edges
                  if s != d and fsm.protected not in (names[s], names[d])
                  and bin(codes[names[s]] ^ codes[names[d]]).count("1") != 1)


def expected_ring_verdict(fsm: Fsm) -> list[tuple[str, tuple[str, ...]]]:
    """The verdict ``run_all_checks`` must give with FIF on and the FSM's
    protected state, derived from the generator's own graph and bits.

    By construction the ring reaches every state, every state has an exit,
    the whole graph is one strongly connected set, codes are distinct and
    a default arm covers the unused codes.  So only HD (popcount of the
    XOR) and FIF (the paper's per-bit product) can fire, both on
    unprotected non-self edges only.
    """
    names = fsm.states
    p = names.index(fsm.protected)
    bp = fsm.codes[p]
    mask = 2 ** fsm.width - 1
    verdict = []
    for s, d, _ in fsm.edges:
        if s == d or p in (s, d):
            continue
        bx, by = fsm.codes[s], fsm.codes[d]
        if bin(bx ^ by).count("1") != 1:
            verdict.append((HD, (names[s], names[d])))
        if ((bx ^ by) | (bx & bp)) & mask == mask:
            verdict.append((FIF, (names[s], names[d], fsm.protected)))
    return sorted(verdict)
