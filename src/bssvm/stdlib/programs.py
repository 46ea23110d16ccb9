"""Library of machine programs.

Deciders and guards (sgn, sgn_decider, interval_member, even_zeros,
inv_shift, cantor_cosemidecider), the oracle-demo trio (oracle_member,
always_zero, eq_probe), and the enumeration programs (q_enumerator,
qx_enumerator, algebraic_semidecider, dependence).

The enumeration programs share one engine: integers live in cells and are
stepped by +-1 against a constant cell, gcd is a subtraction loop, and
binomial coefficients use the native exact MUL/DIV.  The n-th coefficient
tuple is found by direct unranking (subtract frame and degree-block counts,
then lex-unrank a weak composition), so nothing ever maintains tuple state
on the tape; only qx_enumerator, which must hand back a whole coefficient
tuple, touches the window.  It drags its 25-cell workspace rightward with a
"caravan" transit - 25 ascending COPYs then SHIFTR - which keeps every
workspace slot at its relative address while leaving the old rel-0 value
stranded just left of the window.  Staging coefficients in rel 0 therefore
deposits them at absolute cells 0..d, and after a closing SHIFTL the
mixed-frame OUTPUT c0..c0 emits exactly that block.
"""

from __future__ import annotations

from fractions import Fraction

from ..errors import BssError
from ..machine.program import Program
from .asm import Asm, Cells

# -- shared snippets ---------------------------------------------------------


def _emit_successor(a: Asm, c: Cells, accept: str) -> None:
    # Advance (c.p, c.q) to the next reduced positive pair: same height with
    # larger numerator, else (1, height).  Jumps to `accept` when done.
    cand = a.fresh("cand")
    newh = a.fresh("newh")
    trygcd = a.fresh("trygcd")
    gcd = a.fresh("gcd")
    ga_up = a.fresh("ga_up")
    gb_up = a.fresh("gb_up")
    gdone = a.fresh("gdone")
    a.add(c.h, c.p, c.q)
    a.label(cand)
    a.add(c.p, c.p, c.one)
    a.sub(c.q, c.q, c.one)
    a.branch(c.q, newh, newh, trygcd)
    a.label(newh)
    a.const(c.p, 1)
    a.copy(c.q, c.h)
    a.jmp(accept)
    a.label(trygcd)
    a.copy(c.ga, c.p)
    a.copy(c.gb, c.q)
    a.label(gcd)
    a.sub(c.diff, c.ga, c.gb)
    a.branch(c.diff, gb_up, gdone, ga_up)
    a.label(ga_up)
    a.copy(c.ga, c.diff)
    a.jmp(gcd)
    a.label(gb_up)
    a.sub(c.gb, c.gb, c.ga)
    a.jmp(gcd)
    a.label(gdone)
    a.sub(c.diff, c.ga, c.one)
    a.branch(c.diff, accept, accept, cand)


def _emit_rational_at(a: Asm, c: Cells, done: str) -> None:
    # c.val := n-th rational where n = c.idx (destroyed).  Order: 0, then
    # positive rationals by height then numerator, each followed by its
    # negation.  Ends with JMP to `done`; diverges on a negative or
    # non-integer index.  Needs c.one == 1 and c.zero == 0.
    spin = a.fresh("spin")
    iszero = a.fresh("iszero")
    start = a.fresh("start")
    loop = a.fresh("loop")
    step1 = a.fresh("step1")
    step2 = a.fresh("step2")
    emitp = a.fresh("emitp")
    emitn = a.fresh("emitn")
    a.branch(c.idx, spin, iszero, start)
    a.label(iszero)
    a.const(c.val, 0)
    a.jmp(done)
    a.label(start)
    a.sub(c.idx, c.idx, c.one)
    a.const(c.p, 1)
    a.const(c.q, 1)
    a.label(loop)
    a.branch(c.idx, spin, emitp, step1)
    a.label(step1)
    a.sub(c.idx, c.idx, c.one)
    a.branch(c.idx, spin, emitn, step2)
    a.label(step2)
    a.sub(c.idx, c.idx, c.one)
    _emit_successor(a, c, accept=loop)
    a.label(emitp)
    a.div(c.val, c.p, c.q)
    a.jmp(done)
    a.label(emitn)
    a.div(c.val, c.p, c.q)
    a.sub(c.val, c.zero, c.val)
    a.jmp(done)
    a.label(spin)
    a.jmp(spin)


def _emit_binom(a: Asm, c: Cells, n_cell: int, k_cell: int, out: int) -> None:
    # out := C(n, k) via out *= (n-k+i)/i for i = 1..k; n, k preserved.
    loop = a.fresh("binl")
    body = a.fresh("binb")
    done = a.fresh("bind")
    a.const(out, 1)
    a.const(c.bi, 0)
    a.sub(c.bbase, n_cell, k_cell)
    a.label(loop)
    a.sub(c.bterm, c.bi, k_cell)
    a.branch(c.bterm, body, done, done)
    a.label(body)
    a.add(c.bi, c.bi, c.one)
    a.add(c.bterm, c.bbase, c.bi)
    a.mul(out, out, c.bterm)
    a.div(out, out, c.bi)
    a.jmp(loop)
    a.label(done)  # attaches to the caller's next instruction


def _emit_unrank_part(a: Asm, c: Cells) -> None:
    # Pop the first part of the rank-th weak composition of c.S into c.P
    # parts (lex ascending): c.j := part, then S -= j, P -= 1, c.rank is
    # reduced to the rank within the remaining suffix.
    single = a.fresh("single")
    scan = a.fresh("scan")
    vloop = a.fresh("vloop")
    more = a.fresh("more")
    found = a.fresh("found")
    have = a.fresh("have")
    a.sub(c.diff, c.P, c.one)
    a.branch(c.diff, single, single, scan)
    a.label(scan)
    a.const(c.v, 0)
    a.label(vloop)
    # candidate count with first part v: C(S - v + P - 2, P - 2)
    a.sub(c.bn, c.S, c.v)
    a.add(c.bn, c.bn, c.P)
    a.sub(c.bn, c.bn, c.one)
    a.sub(c.bn, c.bn, c.one)
    a.sub(c.bk, c.P, c.one)
    a.sub(c.bk, c.bk, c.one)
    _emit_binom(a, c, c.bn, c.bk, c.below)
    a.sub(c.diff, c.rank, c.below)
    a.branch(c.diff, found, more, more)
    a.label(more)
    a.copy(c.rank, c.diff)
    a.add(c.v, c.v, c.one)
    a.jmp(vloop)
    a.label(found)
    a.copy(c.j, c.v)
    a.jmp(have)
    a.label(single)
    a.copy(c.j, c.S)
    a.const(c.rank, 0)
    a.label(have)
    a.sub(c.S, c.S, c.j)
    a.sub(c.P, c.P, c.one)


# -- small deciders ----------------------------------------------------------


def build_sgn() -> Program:
    """Three-way sign: input x, output -1, 0, or 1."""
    a = Asm("sgn", 1, zero=(1, 1))
    neg = a.fresh("neg")
    pos = a.fresh("pos")
    emit = a.fresh("emit")
    a.label("entry")
    a.branch(0, neg, emit, pos)
    a.label(pos)
    a.const(1, 1)
    a.jmp(emit)
    a.label(neg)
    a.const(1, -1)
    a.label(emit)
    a.output(1)
    return a.build()


def build_sgn_decider() -> Program:
    """Decider form of sgn: output 1 iff x > 0, else 0."""
    a = Asm("sgn_decider", 1, zero=(1, 1))
    pos = a.fresh("pos")
    emit = a.fresh("emit")
    a.label("entry")
    a.branch(0, emit, emit, pos)
    a.label(pos)
    a.const(1, 1)
    a.label(emit)
    a.output(1)
    return a.build()


def build_interval_member(lo=Fraction(1, 2), hi=Fraction(1)) -> Program:
    """Closed-interval membership: output 1 iff lo <= x <= hi."""
    a = Asm("interval_member", 1, zero=(3, 3))
    a.param("lo", lo)
    a.param("hi", hi)
    geq = a.fresh("geq")
    yes = a.fresh("yes")
    emit = a.fresh("emit")
    a.label("entry")
    a.const_param(1, "lo")
    a.sub(1, 0, 1)
    a.branch(1, emit, geq, geq)
    a.label(geq)
    a.const_param(2, "hi")
    a.sub(2, 0, 2)
    a.branch(2, yes, yes, emit)
    a.label(yes)
    a.const(3, 1)
    a.label(emit)
    a.output(3)
    return a.build()


def build_even_zeros() -> Program:
    """Output 1 iff x is in some [4^-m / 2, 4^-m], i.e. the binary expansion
    of x in (0,1) opens with an even number of zeros; boundary powers 2^-k
    are members.  Quadrupling loop, two branches per round."""
    a = Asm("even_zeros", 1, zero=(5, 6))
    c = Cells("x", base=0)
    half, four, one, res, t = 2, 3, 4, 5, 6
    g1 = a.fresh("g1")
    loop = a.fresh("loop")
    small = a.fresh("small")
    yes = a.fresh("yes")
    no = a.fresh("no")
    a.label("entry")
    a.const(half, Fraction(1, 2))
    a.const(four, 4)
    a.const(one, 1)
    a.branch(c.x, no, no, g1)
    a.label(g1)
    a.sub(t, c.x, one)
    a.branch(t, loop, yes, no)
    a.label(loop)
    a.sub(t, c.x, half)
    a.branch(t, small, yes, yes)
    a.label(small)
    a.mul(c.x, c.x, four)
    a.sub(t, c.x, one)
    a.branch(t, loop, yes, no)
    a.label(yes)
    a.const(res, 1)
    a.label(no)
    a.output(res)
    return a.build()


def build_inv_shift() -> Program:
    """Output 1/(x - shift) with shift = 1; the zero-guard branch spins on
    x == shift."""
    a = Asm("inv_shift", 1)
    a.param("shift", Fraction(1))
    guard = a.fresh("guard")
    go = a.fresh("go")
    a.label("entry")
    a.const_param(1, "shift")
    a.sub(2, 0, 1)
    a.label(guard)
    a.branch(2, go, guard, go)
    a.label(go)
    a.const(3, 1)
    a.div(3, 3, 2)
    a.output(3)
    return a.build()


def build_cantor_cosemidecider() -> Program:
    """Halts exactly on inputs outside the middle-thirds Cantor set: ternary
    digit extraction by exact tripling; hitting the open middle third halts,
    members walk forever."""
    a = Asm("cantor_cosemidecider", 1, zero=(6, 6))
    x = 0
    third, one, three, two, res, t, u = 1, 2, 3, 4, 6, 7, 8
    g2 = a.fresh("g2")
    loop = a.fresh("loop")
    mid = a.fresh("mid")
    d0 = a.fresh("d0")
    d2 = a.fresh("d2")
    out = a.fresh("out")
    a.label("entry")
    a.const(one, 1)
    a.const(three, 3)
    a.const(two, 2)
    a.branch(x, out, loop, g2)
    a.label(g2)
    a.sub(t, x, one)
    a.branch(t, loop, loop, out)
    a.label(loop)
    a.mul(t, x, three)
    a.sub(u, t, one)
    a.branch(u, d0, d0, mid)
    a.label(mid)
    a.sub(u, t, two)
    a.branch(u, out, d2, d2)
    a.label(d0)
    a.copy(x, t)
    a.jmp(loop)
    a.label(d2)
    a.sub(x, t, two)
    a.jmp(loop)
    a.label(out)
    a.const(res, 1)
    a.output(res)
    return a.build()


# -- oracle demos ------------------------------------------------------------


def build_oracle_member() -> Program:
    """Arity 2; output 1 iff the oracle accepts the second coordinate."""
    a = Asm("oracle_member", 2)
    yes = a.fresh("yes")
    no = a.fresh("no")
    a.label("query")
    a.oracle(1, 1, yes, no)
    a.label(yes)
    a.const(2, 1)
    a.output(2)
    a.label(no)
    a.const(2, 0)
    a.output(2)
    return a.build()


def build_always_zero() -> Program:
    """Arity 2; ignores both inputs and outputs 0."""
    a = Asm("always_zero", 2)
    a.label("entry")
    a.const(2, 0)
    a.output(2)
    return a.build()


def build_eq_probe() -> Program:
    """Arity 2; output 1 iff the inputs are equal (an equality branch on a
    nonconstant function, which the witness pipeline must refuse)."""
    a = Asm("eq_probe", 2)
    yes = a.fresh("yes")
    no = a.fresh("no")
    a.label("entry")
    a.sub(2, 0, 1)
    a.branch(2, no, yes, no)
    a.label(yes)
    a.const(3, 1)
    a.output(3)
    a.label(no)
    a.const(3, 0)
    a.output(3)
    return a.build()


# -- enumeration programs ----------------------------------------------------


def build_q_enumerator() -> Program:
    """Input n, output the n-th rational; diverges off the naturals."""
    c = Cells("idx", "p", "q", "h", "ga", "gb", "diff", "one", "zero", "val")
    a = Asm("q_enumerator", 1, zero=(0, c.top - 1))
    emit = a.fresh("emit")
    a.label("entry")
    a.const(c.one, 1)
    _emit_rational_at(a, c, done=emit)
    a.label(emit)
    a.output(c.val)
    return a.build()


# qx_enumerator home slots: rel 0 staging (doubles as the input cell and the
# deposit source), rel 1..24 state.
_QX = Cells("val", "idx", "p", "q", "h", "ga", "gb", "diff", "one", "zero",
            "S", "P", "t", "d", "N", "bs", "rank", "j", "v",
            "bn", "bk", "below", "bi", "bterm", "bbase")
_QX_TOP = _QX.top - 1  # 24


def _emit_caravan_transit(a: Asm) -> None:
    # Drag the workspace one cell right: 25 ascending copies then SHIFTR.
    # Relative state is unchanged; the old rel-0 value stays at the absolute
    # cell the window just left, which is how a coefficient gets deposited.
    for r in range(_QX_TOP, -1, -1):
        a.copy(r + 1, r)
    a.shiftr()


def build_qx_enumerator() -> Program:
    """Input n, output the full coefficient tuple (low to high) of the n-th
    rational polynomial; tuple length is chosen at run time via the window."""
    c = _QX
    a = Asm("qx_enumerator", 1, zero=(0, _QX_TOP))

    floc = a.fresh("floc")
    fsub = a.fresh("fsub")
    bloc = a.fresh("bloc")
    bsub = a.fresh("bsub")
    bdone = a.fresh("bdone")
    ploop = a.fresh("ploop")
    bump = a.fresh("bump")
    qgo = a.fresh("qgo")
    put = a.fresh("put")
    tnext = a.fresh("tnext")
    finish = a.fresh("finish")

    a.label("entry")
    a.copy(c.idx, c.val)  # the input lands in the staging slot; move it out
    a.const(c.one, 1)
    a.const(c.N, 1)
    a.const(c.bs, 1)
    # frame search: frame N holds 2^(N-1) polynomials
    a.label(floc)
    a.sub(c.diff, c.idx, c.bs)
    a.branch(c.diff, bloc, fsub, fsub)
    a.label(fsub)
    a.copy(c.idx, c.diff)
    a.add(c.bs, c.bs, c.bs)
    a.add(c.N, c.N, c.one)
    a.jmp(floc)
    # degree-block search: block d holds C(N-1, d)
    a.label(bloc)
    a.const(c.d, 0)
    a.const(c.bs, 1)
    a.label(bsub)
    a.sub(c.diff, c.idx, c.bs)
    a.branch(c.diff, bdone, bsub + "_", bsub + "_")
    a.label(bsub + "_")
    a.copy(c.idx, c.diff)
    a.sub(c.bn, c.N, c.one)
    a.sub(c.bn, c.bn, c.d)
    a.mul(c.bs, c.bs, c.bn)
    a.add(c.bk, c.d, c.one)
    a.div(c.bs, c.bs, c.bk)
    a.add(c.d, c.d, c.one)
    a.jmp(bsub)
    a.label(bdone)
    a.sub(c.S, c.N, c.d)
    a.sub(c.S, c.S, c.one)
    a.add(c.P, c.d, c.one)
    a.copy(c.rank, c.idx)
    a.const(c.t, 0)
    # one coefficient per loop pass: unrank, bump the top index, convert,
    # stage, transit
    a.label(ploop)
    _emit_unrank_part(a, c)
    a.sub(c.diff, c.t, c.d)
    a.branch(c.diff, qgo, bump, qgo)
    a.label(bump)
    a.add(c.j, c.j, c.one)
    a.label(qgo)
    a.copy(c.idx, c.j)
    _emit_rational_at(a, c, done=put)
    a.label(put)
    _emit_caravan_transit(a)
    a.sub(c.diff, c.t, c.d)
    a.branch(c.diff, tnext, finish, tnext)
    a.label(tnext)
    a.add(c.t, c.t, c.one)
    a.jmp(ploop)
    a.label(finish)
    a.shiftl()
    a.output(c.val)
    return a.build()


def build_algebraic_semidecider() -> Program:
    """Input x; walks the polynomial enumeration and halts (output 1) at the
    first polynomial vanishing at x, so it halts exactly on algebraic
    numbers representable here.  Never shifts: candidates are evaluated
    coefficient by coefficient as they are unranked."""
    c = Cells("x", "one", "zero", "N", "d", "loc", "bs", "S", "P", "t",
              "rank", "j", "acc", "xpow", "val", "idx",
              "p", "q", "h", "ga", "gb", "diff",
              "bn", "bk", "below", "bi", "bterm", "bbase", "v")
    a = Asm("algebraic_semidecider", 1, zero=(0, c.top - 1))
    cand = a.fresh("cand")
    ploop = a.fresh("ploop")
    bump = a.fresh("bump")
    qgo = a.fresh("qgo")
    accum = a.fresh("accum")
    tnext = a.fresh("tnext")
    evalz = a.fresh("evalz")
    halt = a.fresh("halt")
    succ = a.fresh("succ")
    nextblock = a.fresh("nextblock")
    newframe = a.fresh("newframe")
    calcbs = a.fresh("calcbs")

    a.label("entry")
    a.const(c.one, 1)
    a.const(c.N, 1)
    a.const(c.d, 0)
    a.const(c.loc, 0)
    a.const(c.bs, 1)
    a.label(cand)
    a.sub(c.S, c.N, c.d)
    a.sub(c.S, c.S, c.one)
    a.add(c.P, c.d, c.one)
    a.copy(c.rank, c.loc)
    a.const(c.acc, 0)
    a.const(c.xpow, 1)
    a.const(c.t, 0)
    a.label(ploop)
    _emit_unrank_part(a, c)
    a.sub(c.diff, c.t, c.d)
    a.branch(c.diff, qgo, bump, qgo)
    a.label(bump)
    a.add(c.j, c.j, c.one)
    a.label(qgo)
    a.copy(c.idx, c.j)
    _emit_rational_at(a, c, done=accum)
    a.label(accum)
    a.mul(c.val, c.val, c.xpow)
    a.add(c.acc, c.acc, c.val)
    a.mul(c.xpow, c.xpow, c.x)
    a.sub(c.diff, c.t, c.d)
    a.branch(c.diff, tnext, evalz, tnext)
    a.label(tnext)
    a.add(c.t, c.t, c.one)
    a.jmp(ploop)
    a.label(evalz)
    a.branch(c.acc, succ, halt, succ)
    a.label(halt)
    a.const(c.val, 1)
    a.output(c.val)
    a.label(succ)
    a.add(c.loc, c.loc, c.one)
    a.sub(c.diff, c.loc, c.bs)
    a.branch(c.diff, cand, nextblock, nextblock)
    a.label(nextblock)
    a.const(c.loc, 0)
    a.add(c.d, c.d, c.one)
    a.sub(c.diff, c.d, c.N)
    a.branch(c.diff, calcbs, newframe, newframe)
    a.label(newframe)
    a.add(c.N, c.N, c.one)
    a.const(c.d, 0)
    a.label(calcbs)
    a.sub(c.bn, c.N, c.one)
    a.copy(c.bk, c.d)
    _emit_binom(a, c, c.bn, c.bk, c.bs)
    a.jmp(cand)
    return a.build()


def build_dependence() -> Program:
    """Inputs (x1, x2); walks the two-variable enumeration and halts (output
    1) at the first polynomial vanishing at (x1, x2), i.e. exactly when the
    pair is algebraically dependent over Q.  Monomials: degree blocks
    ascending, first exponent descending; powers are recomputed per monomial
    to stay division-free."""
    c = Cells("x1", "x2", "one", "zero", "two", "N", "D", "loc", "bs",
              "S", "P", "rank", "j", "acc", "mono", "e1", "e2", "b", "ctr",
              "val", "idx", "p", "q", "h", "ga", "gb", "diff",
              "bn", "bk", "below", "bi", "bterm", "bbase", "v")
    a = Asm("dependence", 2, zero=(0, c.top - 1))
    cand = a.fresh("cand")
    ploop = a.fresh("ploop")
    accum = a.fresh("accum")
    pw1 = a.fresh("pw1")
    pw1b = a.fresh("pw1b")
    pw2 = a.fresh("pw2")
    pw2b = a.fresh("pw2b")
    addin = a.fresh("addin")
    stepmono = a.fresh("stepmono")
    newblock = a.fresh("newblock")
    posnext = a.fresh("posnext")
    evalz = a.fresh("evalz")
    halt = a.fresh("halt")
    succ = a.fresh("succ")
    nextblock = a.fresh("nextblock")
    newframe = a.fresh("newframe")
    calcbs = a.fresh("calcbs")

    def emit_parts_count():
        # c.P := (D+1)(D+2)/2, the monomial count at degree cap D
        a.add(c.bn, c.D, c.one)
        a.add(c.bk, c.D, c.two)
        a.mul(c.P, c.bn, c.bk)
        a.div(c.P, c.P, c.two)

    a.label("entry")
    a.const(c.one, 1)
    a.const(c.two, 2)
    a.const(c.N, 1)
    a.const(c.D, 0)
    a.const(c.loc, 0)
    a.const(c.bs, 1)
    a.label(cand)
    a.sub(c.S, c.N, c.D)
    emit_parts_count()
    a.copy(c.rank, c.loc)
    a.const(c.acc, 0)
    a.const(c.e1, 0)
    a.const(c.e2, 0)
    a.const(c.b, 0)
    a.label(ploop)
    _emit_unrank_part(a, c)
    a.copy(c.idx, c.j)
    _emit_rational_at(a, c, done=accum)
    # mono := x1^e1 * x2^e2, by repeated multiplication
    a.label(accum)
    a.const(c.mono, 1)
    a.copy(c.ctr, c.e1)
    a.label(pw1)
    a.branch(c.ctr, pw2, pw2, pw1b)
    a.label(pw1b)
    a.mul(c.mono, c.mono, c.x1)
    a.sub(c.ctr, c.ctr, c.one)
    a.jmp(pw1)
    a.label(pw2)
    a.copy(c.ctr, c.e2)
    a.label(pw2b)
    a.branch(c.ctr, addin, addin, pw2 + "_")
    a.label(pw2 + "_")
    a.mul(c.mono, c.mono, c.x2)
    a.sub(c.ctr, c.ctr, c.one)
    a.jmp(pw2b)
    a.label(addin)
    a.mul(c.val, c.val, c.mono)
    a.add(c.acc, c.acc, c.val)
    # advance (e1, e2) in graded order
    a.label(stepmono)
    a.branch(c.e1, newblock, newblock, posnext + "_")
    a.label(posnext + "_")
    a.sub(c.e1, c.e1, c.one)
    a.add(c.e2, c.e2, c.one)
    a.jmp(posnext)
    a.label(newblock)
    a.add(c.b, c.b, c.one)
    a.copy(c.e1, c.b)
    a.const(c.e2, 0)
    a.label(posnext)
    a.branch(c.P, evalz, evalz, ploop)
    a.label(evalz)
    a.branch(c.acc, succ, halt, succ)
    a.label(halt)
    a.const(c.val, 1)
    a.output(c.val)
    a.label(succ)
    a.add(c.loc, c.loc, c.one)
    a.sub(c.diff, c.loc, c.bs)
    a.branch(c.diff, cand, nextblock, nextblock)
    a.label(nextblock)
    a.const(c.loc, 0)
    a.add(c.D, c.D, c.one)
    a.sub(c.diff, c.D, c.N)
    a.branch(c.diff, calcbs, newframe, newframe)
    a.label(newframe)
    a.add(c.N, c.N, c.one)
    a.const(c.D, 0)
    a.label(calcbs)
    # bs := C(S + P - 1, P - 1) with S = N - D and P monomials
    a.sub(c.S, c.N, c.D)
    emit_parts_count()
    a.add(c.bn, c.S, c.P)
    a.sub(c.bn, c.bn, c.one)
    a.sub(c.bk, c.P, c.one)
    _emit_binom(a, c, c.bn, c.bk, c.bs)
    a.jmp(cand)
    return a.build()


# -- registry ----------------------------------------------------------------

_BUILDERS = {
    "sgn": build_sgn,
    "sgn_decider": build_sgn_decider,
    "interval_member": build_interval_member,
    "even_zeros": build_even_zeros,
    "inv_shift": build_inv_shift,
    "cantor_cosemidecider": build_cantor_cosemidecider,
    "oracle_member": build_oracle_member,
    "always_zero": build_always_zero,
    "eq_probe": build_eq_probe,
    "q_enumerator": build_q_enumerator,
    "qx_enumerator": build_qx_enumerator,
    "algebraic_semidecider": build_algebraic_semidecider,
    "dependence": build_dependence,
}


def stdlib_names() -> list[str]:
    return list(_BUILDERS)


def stdlib_program(name: str, *args) -> Program:
    """Build a library program by name; extra positional arguments reach
    the builder (interval_member takes its end points lo, hi)."""
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise BssError(f"no library program named {name!r}") from None
    return builder(*args)
