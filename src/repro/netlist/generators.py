"""Parametric combinational circuit generators.

The paper's dataset comes from the EPFL combinational benchmark suite,
OpenCores designs, and the OpenPiton SPARC core — none of which we can ship
with a 14nm flow.  This module builds *structurally comparable* circuits from
scratch: arithmetic blocks (adders, multipliers, shifters), control blocks
(arbiters, decoders, priority logic, routers) and seeded random control
logic.  Each generator is parametric in width/size so the named benchmark
suite (:mod:`repro.netlist.benchmarks`) can scale designs from a few hundred
to tens of thousands of AIG nodes.

All generators return an :class:`repro.netlist.aig.AIG`.
"""

from __future__ import annotations

import random
import zlib
from typing import List, Sequence, Tuple

from .aig import AIG, CONST_FALSE, CONST_TRUE, lit_not

__all__ = [
    "ripple_adder",
    "carry_select_adder",
    "multiplier",
    "square",
    "barrel_shifter",
    "max_unit",
    "alu",
    "divider",
    "sin_approx",
    "log2_approx",
    "priority_encoder",
    "decoder",
    "arbiter",
    "round_robin_arbiter",
    "voter",
    "parity",
    "comparator",
    "crossbar_router",
    "int2float",
    "random_control",
    "sbox_layer",
    "dynamic_node_proxy",
    "aes_proxy",
    "fpu_proxy",
    "sparc_core_proxy",
]

Word = List[int]


# ----------------------------------------------------------------------
# Word-level helpers
# ----------------------------------------------------------------------
def _input_word(aig: AIG, name: str, width: int) -> Word:
    return [aig.add_input(f"{name}[{i}]") for i in range(width)]


def _output_word(aig: AIG, name: str, bits: Sequence[int]) -> None:
    for i, b in enumerate(bits):
        aig.add_output(b, f"{name}[{i}]")


def _full_adder(aig: AIG, a: int, b: int, cin: int) -> Tuple[int, int]:
    """Return (sum, carry) of a full adder."""
    s = aig.add_xor(aig.add_xor(a, b), cin)
    c = aig.add_maj(a, b, cin)
    return s, c


def _add_words(aig: AIG, a: Word, b: Word, cin: int = CONST_FALSE) -> Tuple[Word, int]:
    """Ripple-carry addition of two equal-width words."""
    if len(a) != len(b):
        raise ValueError("operand widths differ")
    out: Word = []
    carry = cin
    for ai, bi in zip(a, b):
        s, carry = _full_adder(aig, ai, bi, carry)
        out.append(s)
    return out, carry


def _sub_words(aig: AIG, a: Word, b: Word) -> Tuple[Word, int]:
    """a - b via two's complement; returns (difference, borrow-free flag)."""
    nb = [lit_not(x) for x in b]
    diff, carry = _add_words(aig, a, nb, CONST_TRUE)
    return diff, carry  # carry==1 means a >= b


def _mux_words(aig: AIG, sel: int, a: Word, b: Word) -> Word:
    """Per-bit ``sel ? a : b``."""
    return [aig.add_mux(sel, x, y) for x, y in zip(a, b)]


def _and_word(aig: AIG, bit: int, word: Word) -> Word:
    return [aig.add_and(bit, w) for w in word]


def _reduce_or(aig: AIG, bits: Sequence[int]) -> int:
    """Balanced OR-tree reduction."""
    work = list(bits)
    if not work:
        return CONST_FALSE
    while len(work) > 1:
        nxt = [
            aig.add_or(work[i], work[i + 1]) if i + 1 < len(work) else work[i]
            for i in range(0, len(work), 2)
        ]
        work = nxt
    return work[0]


def _reduce_and(aig: AIG, bits: Sequence[int]) -> int:
    work = list(bits)
    if not work:
        return CONST_TRUE
    while len(work) > 1:
        nxt = [
            aig.add_and(work[i], work[i + 1]) if i + 1 < len(work) else work[i]
            for i in range(0, len(work), 2)
        ]
        work = nxt
    return work[0]


def _reduce_xor(aig: AIG, bits: Sequence[int]) -> int:
    work = list(bits)
    if not work:
        return CONST_FALSE
    while len(work) > 1:
        nxt = [
            aig.add_xor(work[i], work[i + 1]) if i + 1 < len(work) else work[i]
            for i in range(0, len(work), 2)
        ]
        work = nxt
    return work[0]


# ----------------------------------------------------------------------
# Arithmetic benchmarks ("adder", "multiplier", "square", "bar", ...)
# ----------------------------------------------------------------------
def ripple_adder(width: int = 32) -> AIG:
    """Ripple-carry adder: the EPFL ``adder`` analogue."""
    aig = AIG(f"adder_{width}")
    a = _input_word(aig, "a", width)
    b = _input_word(aig, "b", width)
    cin = aig.add_input("cin")
    s, cout = _add_words(aig, a, b, cin)
    _output_word(aig, "sum", s)
    aig.add_output(cout, "cout")
    return aig


def carry_select_adder(width: int = 32, block: int = 4) -> AIG:
    """Carry-select adder: same function as :func:`ripple_adder`, different structure."""
    aig = AIG(f"csel_adder_{width}")
    a = _input_word(aig, "a", width)
    b = _input_word(aig, "b", width)
    cin = aig.add_input("cin")
    out: Word = []
    carry = cin
    for start in range(0, width, block):
        ab = a[start : start + block]
        bb = b[start : start + block]
        s0, c0 = _add_words(aig, ab, bb, CONST_FALSE)
        s1, c1 = _add_words(aig, ab, bb, CONST_TRUE)
        out.extend(_mux_words(aig, carry, s1, s0))
        carry = aig.add_mux(carry, c1, c0)
    _output_word(aig, "sum", out)
    aig.add_output(carry, "cout")
    return aig


def multiplier(width: int = 12) -> AIG:
    """Array multiplier: the EPFL ``multiplier`` analogue."""
    aig = AIG(f"multiplier_{width}")
    a = _input_word(aig, "a", width)
    b = _input_word(aig, "b", width)
    acc: Word = [CONST_FALSE] * (2 * width)
    for i, bi in enumerate(b):
        partial = [CONST_FALSE] * (2 * width)
        for j, aj in enumerate(a):
            partial[i + j] = aig.add_and(bi, aj)
        acc, _ = _add_words(aig, acc, partial)
    _output_word(aig, "p", acc)
    return aig


def square(width: int = 12) -> AIG:
    """Squarer: the EPFL ``square`` analogue (multiplier with shared operand)."""
    aig = AIG(f"square_{width}")
    a = _input_word(aig, "a", width)
    acc: Word = [CONST_FALSE] * (2 * width)
    for i, bi in enumerate(a):
        partial = [CONST_FALSE] * (2 * width)
        for j, aj in enumerate(a):
            partial[i + j] = aig.add_and(bi, aj)
        acc, _ = _add_words(aig, acc, partial)
    _output_word(aig, "p", acc)
    return aig


def barrel_shifter(width: int = 32) -> AIG:
    """Logarithmic barrel shifter: the EPFL ``bar`` analogue."""
    aig = AIG(f"bar_{width}")
    data = _input_word(aig, "d", width)
    select_bits = max(1, (width - 1).bit_length())
    sel = _input_word(aig, "s", select_bits)
    current = data
    for stage, s in enumerate(sel):
        shift = 1 << stage
        shifted = [
            current[i - shift] if i - shift >= 0 else CONST_FALSE
            for i in range(width)
        ]
        current = _mux_words(aig, s, shifted, current)
    _output_word(aig, "q", current)
    return aig


def comparator(width: int = 32) -> AIG:
    """Unsigned comparator producing eq/lt/gt flags."""
    aig = AIG(f"cmp_{width}")
    a = _input_word(aig, "a", width)
    b = _input_word(aig, "b", width)
    eq = _reduce_and(aig, [aig.add_xnor(x, y) for x, y in zip(a, b)])
    _diff, a_ge_b = _sub_words(aig, a, b)
    gt = aig.add_and(a_ge_b, lit_not(eq))
    lt = lit_not(aig.add_or(gt, eq))
    aig.add_output(eq, "eq")
    aig.add_output(lt, "lt")
    aig.add_output(gt, "gt")
    return aig


def max_unit(width: int = 32, operands: int = 4) -> AIG:
    """N-operand maximum: the EPFL ``max`` analogue."""
    aig = AIG(f"max_{operands}x{width}")
    words = [_input_word(aig, f"x{i}", width) for i in range(operands)]
    best = words[0]
    for w in words[1:]:
        _diff, best_ge_w = _sub_words(aig, best, w)
        best = _mux_words(aig, best_ge_w, best, w)
    _output_word(aig, "max", best)
    return aig


def alu(width: int = 16) -> AIG:
    """A small ALU (add/sub/and/or/xor/shift) behind an opcode mux."""
    aig = AIG(f"alu_{width}")
    a = _input_word(aig, "a", width)
    b = _input_word(aig, "b", width)
    op = _input_word(aig, "op", 3)
    add_r, _ = _add_words(aig, a, b)
    sub_r, _ = _sub_words(aig, a, b)
    and_r = [aig.add_and(x, y) for x, y in zip(a, b)]
    or_r = [aig.add_or(x, y) for x, y in zip(a, b)]
    xor_r = [aig.add_xor(x, y) for x, y in zip(a, b)]
    shl_r = [CONST_FALSE] + a[:-1]
    shr_r = a[1:] + [CONST_FALSE]
    not_r = [lit_not(x) for x in a]
    ops = [add_r, sub_r, and_r, or_r, xor_r, shl_r, shr_r, not_r]
    # 8:1 word mux on op bits.
    layer = ops
    for bit in op:
        layer = [
            _mux_words(aig, bit, layer[i + 1], layer[i]) for i in range(0, len(layer), 2)
        ]
    _output_word(aig, "y", layer[0])
    return aig


def divider(width: int = 8) -> AIG:
    """Restoring divider: the EPFL ``div`` analogue (quadratic in width)."""
    aig = AIG(f"div_{width}")
    num = _input_word(aig, "n", width)
    den = _input_word(aig, "d", width)
    remainder: Word = [CONST_FALSE] * width
    quotient: Word = [CONST_FALSE] * width
    for step in range(width - 1, -1, -1):
        remainder = [num[step]] + remainder[:-1]
        diff, no_borrow = _sub_words(aig, remainder, den)
        remainder = _mux_words(aig, no_borrow, diff, remainder)
        quotient[step] = no_borrow
    _output_word(aig, "q", quotient)
    _output_word(aig, "r", remainder)
    return aig


def _const_word(value: int, width: int) -> Word:
    return [CONST_TRUE if (value >> i) & 1 else CONST_FALSE for i in range(width)]


def _mul_words_trunc(aig: AIG, a: Word, b: Word) -> Word:
    """Truncated (same-width) multiplication used by polynomial evaluators."""
    width = len(a)
    acc: Word = [CONST_FALSE] * width
    for i, bi in enumerate(b):
        partial = [CONST_FALSE] * width
        for j, aj in enumerate(a):
            if i + j < width:
                partial[i + j] = aig.add_and(bi, aj)
        acc, _ = _add_words(aig, acc, partial)
    return acc


def sin_approx(width: int = 12, terms: int = 3) -> AIG:
    """Fixed-point polynomial evaluator: the EPFL ``sin`` analogue.

    Evaluates a Horner-form polynomial with alternating-sign constant
    coefficients — structurally a chain of truncated multipliers and adders,
    like the EPFL arithmetic approximation benchmarks.
    """
    aig = AIG(f"sin_{width}")
    x = _input_word(aig, "x", width)
    coeffs = [0b1011, 0b0110, 0b1101, 0b0101, 0b1001][: max(1, terms)]
    acc = _const_word(coeffs[0], width)
    for coef in coeffs[1:]:
        acc = _mul_words_trunc(aig, acc, x)
        acc, _ = _add_words(aig, acc, _const_word(coef, width))
    _output_word(aig, "y", acc)
    return aig


def log2_approx(width: int = 16) -> AIG:
    """Leading-one detector + fractional interpolation: ``log2`` analogue."""
    aig = AIG(f"log2_{width}")
    x = _input_word(aig, "x", width)
    # Priority chain from MSB: position of leading one (one-hot).
    none_above = CONST_TRUE
    onehot: Word = [CONST_FALSE] * width
    for i in range(width - 1, -1, -1):
        onehot[i] = aig.add_and(none_above, x[i])
        none_above = aig.add_and(none_above, lit_not(x[i]))
    # Integer part: binary encoding of the leading-one position.
    pos_bits = max(1, (width - 1).bit_length())
    int_part: Word = []
    for b in range(pos_bits):
        terms = [onehot[i] for i in range(width) if (i >> b) & 1]
        int_part.append(_reduce_or(aig, terms))
    # Fractional part: bits below the leading one, shifted up (approximation
    # realized as masked OR layers — keeps the graph search-heavy).
    frac: Word = []
    for k in range(1, min(5, width)):
        terms = [aig.add_and(onehot[i], x[i - k]) for i in range(k, width)]
        frac.append(_reduce_or(aig, terms))
    _output_word(aig, "int", int_part)
    _output_word(aig, "frac", frac)
    return aig


# ----------------------------------------------------------------------
# Control benchmarks ("arbiter", "priority", "dec", "router", "voter", ...)
# ----------------------------------------------------------------------
def priority_encoder(width: int = 64) -> AIG:
    """Priority encoder: the EPFL ``priority`` analogue."""
    aig = AIG(f"priority_{width}")
    req = _input_word(aig, "r", width)
    none_above = CONST_TRUE
    grant: Word = []
    for i in range(width):
        grant.append(aig.add_and(none_above, req[i]))
        none_above = aig.add_and(none_above, lit_not(req[i]))
    _output_word(aig, "g", grant)
    aig.add_output(lit_not(none_above), "valid")
    return aig


def decoder(bits: int = 6) -> AIG:
    """Full binary decoder: the EPFL ``dec`` analogue (2^bits outputs)."""
    aig = AIG(f"dec_{bits}")
    sel = _input_word(aig, "s", bits)
    en = aig.add_input("en")
    for value in range(1 << bits):
        terms = [sel[b] if (value >> b) & 1 else lit_not(sel[b]) for b in range(bits)]
        aig.add_output(aig.add_and(_reduce_and(aig, terms), en), f"o[{value}]")
    return aig


def arbiter(width: int = 32) -> AIG:
    """Priority arbiter with a masked two-pass scheme: ``arbiter`` analogue."""
    aig = AIG(f"arbiter_{width}")
    req = _input_word(aig, "r", width)
    mask = _input_word(aig, "m", width)
    masked = [aig.add_and(r, m) for r, m in zip(req, mask)]
    any_masked = _reduce_or(aig, masked)

    def _grant_chain(requests: Word) -> Word:
        none_above = CONST_TRUE
        out: Word = []
        for r in requests:
            out.append(aig.add_and(none_above, r))
            none_above = aig.add_and(none_above, lit_not(r))
        return out

    g_masked = _grant_chain(masked)
    g_raw = _grant_chain(req)
    grant = _mux_words(aig, any_masked, g_masked, g_raw)
    _output_word(aig, "g", grant)
    return aig


def round_robin_arbiter(width: int = 16) -> AIG:
    """Round-robin arbiter: thermometer mask derived from a pointer input."""
    aig = AIG(f"rr_arbiter_{width}")
    req = _input_word(aig, "r", width)
    ptr = _input_word(aig, "p", width)  # one-hot pointer (externally held)
    # Thermometer mask: positions at or after the pointer.
    mask: Word = []
    seen = CONST_FALSE
    for i in range(width):
        seen = aig.add_or(seen, ptr[i])
        mask.append(seen)
    masked = [aig.add_and(r, m) for r, m in zip(req, mask)]
    any_masked = _reduce_or(aig, masked)

    def _grant_chain(requests: Word) -> Word:
        none_above = CONST_TRUE
        out: Word = []
        for r in requests:
            out.append(aig.add_and(none_above, r))
            none_above = aig.add_and(none_above, lit_not(r))
        return out

    grant = _mux_words(aig, any_masked, _grant_chain(masked), _grant_chain(req))
    _output_word(aig, "g", grant)
    return aig


def voter(inputs: int = 15) -> AIG:
    """Majority voter over N inputs via a population-count compare: ``voter``."""
    aig = AIG(f"voter_{inputs}")
    x = _input_word(aig, "x", inputs)
    # Population count with a full-adder tree.
    width = inputs.bit_length()
    count: Word = [CONST_FALSE] * width
    for bit in x:
        one = [bit] + [CONST_FALSE] * (width - 1)
        count, _ = _add_words(aig, count, one)
    threshold = inputs // 2 + 1
    _diff, ge = _sub_words(aig, count, _const_word(threshold, width))
    aig.add_output(ge, "maj")
    return aig


def parity(width: int = 64) -> AIG:
    """Wide XOR-tree parity generator."""
    aig = AIG(f"parity_{width}")
    x = _input_word(aig, "x", width)
    aig.add_output(_reduce_xor(aig, x), "p")
    return aig


def crossbar_router(ports: int = 4, width: int = 8) -> AIG:
    """Crossbar switch with per-output port selection: ``router`` analogue."""
    aig = AIG(f"router_{ports}x{width}")
    data = [_input_word(aig, f"d{i}", width) for i in range(ports)]
    sel_bits = max(1, (ports - 1).bit_length())
    sels = [_input_word(aig, f"s{o}", sel_bits) for o in range(ports)]
    for o in range(ports):
        # Decode the select and OR the gated inputs together.
        out: Word = [CONST_FALSE] * width
        for i in range(ports):
            match_terms = [
                sels[o][b] if (i >> b) & 1 else lit_not(sels[o][b])
                for b in range(sel_bits)
            ]
            match = _reduce_and(aig, match_terms)
            gated = _and_word(aig, match, data[i])
            out = [aig.add_or(x, y) for x, y in zip(out, gated)]
        _output_word(aig, f"q{o}", out)
    return aig


def int2float(width: int = 16, mantissa: int = 6) -> AIG:
    """Integer-to-float converter: leading-one detect + normalize shift."""
    aig = AIG(f"int2float_{width}")
    x = _input_word(aig, "x", width)
    none_above = CONST_TRUE
    onehot: Word = [CONST_FALSE] * width
    for i in range(width - 1, -1, -1):
        onehot[i] = aig.add_and(none_above, x[i])
        none_above = aig.add_and(none_above, lit_not(x[i]))
    exp_bits = max(1, (width - 1).bit_length())
    exponent: Word = []
    for b in range(exp_bits):
        exponent.append(
            _reduce_or(aig, [onehot[i] for i in range(width) if (i >> b) & 1])
        )
    mant: Word = []
    for k in range(1, mantissa + 1):
        terms = [aig.add_and(onehot[i], x[i - k]) for i in range(k, width)]
        mant.append(_reduce_or(aig, terms))
    aig.add_output(lit_not(none_above), "nonzero")
    _output_word(aig, "exp", exponent)
    _output_word(aig, "mant", mant)
    return aig


def random_control(
    name: str = "ctrl", num_inputs: int = 32, num_gates: int = 300, seed: int = 0
) -> AIG:
    """Seeded random control logic: analogue of ``ctrl``/``i2c``/``cavlc``/``mem_ctrl``.

    Builds a random DAG of AND/OR/XOR/MUX operators over earlier signals.
    The same (name, sizes, seed) always yields the same graph.
    """
    # zlib.crc32 is stable across processes (unlike str hash,
    # which PYTHONHASHSEED randomizes).
    rng = random.Random((zlib.crc32(name.encode()) & 0xFFFF) * 65537 + seed)
    aig = AIG(f"{name}_{num_inputs}x{num_gates}")
    signals: Word = [aig.add_input(f"x[{i}]") for i in range(num_inputs)]
    for _ in range(num_gates):
        op = rng.random()
        a = rng.choice(signals)
        b = rng.choice(signals)
        if rng.random() < 0.3:
            a = lit_not(a)
        if rng.random() < 0.3:
            b = lit_not(b)
        if op < 0.45:
            out = aig.add_and(a, b)
        elif op < 0.75:
            out = aig.add_or(a, b)
        elif op < 0.9:
            out = aig.add_xor(a, b)
        else:
            out = aig.add_mux(rng.choice(signals), a, b)
        signals.append(out)
    # Expose a deterministic sample of late signals as outputs.
    num_outputs = max(4, num_gates // 24)
    tail = signals[num_inputs:]
    step = max(1, len(tail) // num_outputs)
    for i, s in enumerate(tail[::step][:num_outputs]):
        aig.add_output(s, f"y[{i}]")
    return aig


def sbox_layer(bytes_wide: int = 4, seed: int = 7) -> AIG:
    """Random 8->8 S-box layer followed by an XOR mix: ``aes``-like texture."""
    rng = random.Random(seed)
    aig = AIG(f"sbox_{bytes_wide}")
    inputs = [_input_word(aig, f"b{i}", 8) for i in range(bytes_wide)]
    sboxed: List[Word] = []
    for word in inputs:
        table = list(range(256))
        rng.shuffle(table)
        out_bits: Word = []
        for bit in range(8):
            minterms = [v for v in range(256) if (table[v] >> bit) & 1]
            # Build a (sparse, randomized) sum-of-products over the 8 inputs.
            sampled = rng.sample(minterms, min(len(minterms), 24))
            products = []
            for m in sampled:
                lits = [word[j] if (m >> j) & 1 else lit_not(word[j]) for j in range(8)]
                products.append(_reduce_and(aig, lits))
            out_bits.append(_reduce_or(aig, products))
        sboxed.append(out_bits)
    # Mix layer: XOR neighbouring bytes.
    for i, word in enumerate(sboxed):
        mixed = [
            aig.add_xor(b, sboxed[(i + 1) % bytes_wide][j]) for j, b in enumerate(word)
        ]
        _output_word(aig, f"o{i}", mixed)
    return aig


# ----------------------------------------------------------------------
# OpenPiton design proxies (Figure 3's designs)
# ----------------------------------------------------------------------
def _absorb(dst: AIG, src: AIG, prefix: str) -> None:
    """Copy ``src`` into ``dst`` with fresh inputs, prefixing port names."""
    mapping = {0: CONST_FALSE}
    for node, name in zip(src.inputs, src.input_names):
        mapping[node] = dst.add_input(f"{prefix}.{name}")
    for node in src.and_nodes():
        a, b = src.fanins(node)
        na = mapping[a >> 1] ^ (a & 1)
        nb = mapping[b >> 1] ^ (b & 1)
        mapping[node] = dst.add_and(na, nb)
    for out, name in zip(src.outputs, src.output_names):
        dst.add_output(mapping[out >> 1] ^ (out & 1), f"{prefix}.{name}")


def dynamic_node_proxy(scale: float = 1.0) -> AIG:
    """Proxy for OpenPiton's ``dynamic_node`` NoC router (smallest design)."""
    ports = max(2, int(round(3 * scale)))
    width = max(4, int(round(8 * scale)))
    aig = AIG(f"dynamic_node_s{scale:g}")
    _absorb(aig, crossbar_router(ports=ports, width=width), "xbar")
    _absorb(aig, round_robin_arbiter(width=max(4, int(8 * scale))), "arb")
    _absorb(aig, random_control("noc_ctrl", 16, max(60, int(120 * scale)), seed=11), "ctl")
    return aig


def aes_proxy(scale: float = 1.0) -> AIG:
    """Proxy for an AES round: S-box layers plus XOR key mixing."""
    aig = AIG(f"aes_s{scale:g}")
    layers = max(1, int(round(2 * scale)))
    for layer in range(layers):
        _absorb(aig, sbox_layer(bytes_wide=4, seed=7 + layer), f"rnd{layer}")
    _absorb(aig, parity(width=32), "chk")
    return aig


def fpu_proxy(scale: float = 1.0) -> AIG:
    """Proxy for a floating-point unit: normalize/shift/multiply/add blocks."""
    width = max(8, int(round(12 * scale)))
    aig = AIG(f"fpu_s{scale:g}")
    _absorb(aig, int2float(width=2 * width, mantissa=width // 2), "norm")
    _absorb(aig, barrel_shifter(width=2 * width), "shift")
    _absorb(aig, multiplier(width=width), "mul")
    _absorb(aig, carry_select_adder(width=2 * width), "add")
    return aig


def sparc_core_proxy(scale: float = 1.0) -> AIG:
    """Proxy for the OpenPiton SPARC core (the paper's largest design).

    Composes an ALU, multiplier, shifter, decoder, register-forwarding muxes
    and random control clouds — the block mix of an in-order core datapath.
    """
    width = max(8, int(round(16 * scale)))
    aig = AIG(f"sparc_core_s{scale:g}")
    _absorb(aig, alu(width=width), "alu")
    _absorb(aig, multiplier(width=max(6, width // 2)), "mul")
    _absorb(aig, barrel_shifter(width=width), "shu")
    _absorb(aig, decoder(bits=max(4, int(round(5 * scale)))), "dec")
    _absorb(aig, priority_encoder(width=2 * width), "pri")
    _absorb(aig, crossbar_router(ports=4, width=width), "byp")
    _absorb(
        aig,
        random_control("lsu_ctrl", 24, max(150, int(400 * scale)), seed=3),
        "lsu",
    )
    _absorb(
        aig,
        random_control("ifu_ctrl", 24, max(150, int(400 * scale)), seed=5),
        "ifu",
    )
    _absorb(aig, comparator(width=width), "cmp")
    return aig
