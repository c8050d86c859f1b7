"""Interpreter semantics: arithmetic edge cases, memory safety, intrinsics,
control flow, and property-based agreement with Python reference semantics."""

import gc
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.ir import IRBuilder, Interpreter, InterpreterError, Module, run_kernel
from repro.ir import types as irt
from repro.ir.interpreter import MemoryBuffer, Pointer, buffer_from_numpy, numpy_from_buffer
from repro.ir.values import ConstantFloat, ConstantInt

from ..conftest import build_axpy_module


def _unary_fn(body, param=irt.i32, ret=irt.i32, nparams=1):
    m = Module("t")
    fn = m.add_function(
        "f", irt.function_type(ret, [param] * nparams),
        [f"p{i}" for i in range(nparams)],
    )
    b = IRBuilder(fn.add_block("entry"))
    b.ret(body(b, fn.arguments))
    return m


class TestIntegerSemantics:
    def _binop(self, op, l, r, type=irt.i32):
        m = _unary_fn(lambda b, a: b.binop(op, a[0], a[1]), param=type, nparams=2)
        return Interpreter(m).run("f", [l, r])

    def test_add_wraps(self):
        assert self._binop("add", 2**31 - 1, 1) == -(2**31)

    def test_sdiv_truncates_toward_zero(self):
        assert self._binop("sdiv", -7, 2) == -3
        assert self._binop("sdiv", 7, -2) == -3

    def test_srem_sign_of_dividend(self):
        assert self._binop("srem", -7, 2) == -1
        assert self._binop("srem", 7, -2) == 1

    def test_division_by_zero_raises(self):
        with pytest.raises(InterpreterError):
            self._binop("sdiv", 1, 0)
        with pytest.raises(InterpreterError):
            self._binop("srem", 1, 0)

    def test_udiv_is_unsigned(self):
        # -1 as u32 is 4294967295.
        assert self._binop("udiv", -1, 2) == (2**32 - 1) // 2

    def test_shifts(self):
        assert self._binop("shl", 1, 5) == 32
        assert self._binop("ashr", -8, 1) == -4
        assert self._binop("lshr", -8, 1) == (2**32 - 8) >> 1

    @given(
        st.sampled_from(["add", "sub", "mul", "and", "or", "xor"]),
        st.integers(-(2**31), 2**31 - 1),
        st.integers(-(2**31), 2**31 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_binops_match_python_mod_2_32(self, op, l, r):
        got = self._binop(op, l, r)
        want = {
            "add": l + r, "sub": l - r, "mul": l * r,
            "and": l & r, "or": l | r, "xor": l ^ r,
        }[op]
        assert (got - want) % (2**32) == 0
        assert -(2**31) <= got <= 2**31 - 1

    @given(
        st.integers(-(2**31), 2**31 - 1),
        st.integers(-(2**31), 2**31 - 1).filter(lambda v: v != 0),
    )
    @settings(max_examples=40, deadline=None)
    def test_sdiv_srem_invariant(self, l, r):
        assume(not (l == -(2**31) and r == -1))  # overflow case
        q = self._binop("sdiv", l, r)
        rem = self._binop("srem", l, r)
        assert q * r + rem == l
        assert rem == 0 or abs(rem) < abs(r)


class TestICmp:
    def _cmp(self, pred, l, r):
        m = _unary_fn(
            lambda b, a: b.icmp(pred, a[0], a[1]), param=irt.i32, ret=irt.i1, nparams=2
        )
        return Interpreter(m).run("f", [l, r])

    def test_signed_vs_unsigned(self):
        assert self._cmp("slt", -1, 0) == 1
        assert self._cmp("ult", -1, 0) == 0  # -1 is max unsigned

    @given(st.integers(-100, 100), st.integers(-100, 100))
    @settings(max_examples=40, deadline=None)
    def test_signed_predicates(self, l, r):
        assert self._cmp("slt", l, r) == int(l < r)
        assert self._cmp("sge", l, r) == int(l >= r)
        assert self._cmp("eq", l, r) == int(l == r)


class TestFloatSemantics:
    def test_f32_rounding(self):
        m = _unary_fn(
            lambda b, a: b.fadd(a[0], a[1]), param=irt.f32, ret=irt.f32, nparams=2
        )
        got = Interpreter(m).run("f", [0.1, 0.2])
        assert got == float(np.float32(np.float32(0.1) + np.float32(0.2)))

    def test_fdiv_by_zero_gives_inf(self):
        m = _unary_fn(
            lambda b, a: b.fdiv(a[0], a[1]), param=irt.f32, ret=irt.f32, nparams=2
        )
        assert math.isinf(Interpreter(m).run("f", [1.0, 0.0]))

    def test_fcmp_unordered(self):
        m = _unary_fn(
            lambda b, a: b.fcmp("une", a[0], a[1]),
            param=irt.f64, ret=irt.i1, nparams=2,
        )
        assert Interpreter(m).run("f", [math.nan, 1.0]) == 1
        m2 = _unary_fn(
            lambda b, a: b.fcmp("oeq", a[0], a[1]),
            param=irt.f64, ret=irt.i1, nparams=2,
        )
        assert Interpreter(m2).run("f", [math.nan, math.nan]) == 0


class TestCasts:
    def test_sext_preserves_sign(self):
        m = _unary_fn(lambda b, a: b.sext(a[0], irt.i64), param=irt.i8, ret=irt.i64)
        assert Interpreter(m).run("f", [-5]) == -5

    def test_zext_zero_extends(self):
        m = _unary_fn(lambda b, a: b.zext(a[0], irt.i64), param=irt.i8, ret=irt.i64)
        assert Interpreter(m).run("f", [-1]) == 255

    def test_trunc_wraps(self):
        m = _unary_fn(lambda b, a: b.trunc(a[0], irt.i8), param=irt.i32, ret=irt.i8)
        assert Interpreter(m).run("f", [0x1FF]) == -1

    def test_fptosi_truncates(self):
        m = _unary_fn(
            lambda b, a: b.fptosi(a[0], irt.i32), param=irt.f32, ret=irt.i32
        )
        assert Interpreter(m).run("f", [-2.7]) == -2


class TestMemory:
    def test_out_of_bounds_load_raises(self):
        m = Module("oob")
        fn = m.add_function("f", irt.function_type(irt.f32, [irt.ptr]), ["p"])
        b = IRBuilder(fn.add_block("entry"))
        gep = b.gep(irt.f32, fn.arguments[0], [b.i64_(100)])
        b.ret(b.load(irt.f32, gep))
        buf = MemoryBuffer(16, "small")
        with pytest.raises(InterpreterError, match="out-of-bounds"):
            Interpreter(m).run("f", [Pointer(buf)])

    def test_alloca_isolated_buffers(self):
        m = Module("iso")
        fn = m.add_function("f", irt.function_type(irt.i32, []))
        b = IRBuilder(fn.add_block("entry"))
        p1 = b.alloca(irt.i32)
        p2 = b.alloca(irt.i32)
        b.store(b.i32_(1), p1)
        b.store(b.i32_(2), p2)
        b.ret(b.load(irt.i32, p1))
        assert Interpreter(m).run("f", []) == 1

    def test_numpy_buffer_roundtrip(self):
        data = np.arange(6, dtype=np.float32)
        buf = buffer_from_numpy(data)
        back = numpy_from_buffer(buf, np.float32, (6,))
        assert np.array_equal(back, data)

    def test_aggregate_zero_initializer_global(self):
        m = Module("g")
        from repro.ir.values import ConstantAggregateZero

        t = irt.array_of(irt.i32, 4)
        m.add_global("z", t, ConstantAggregateZero(t))
        fn = m.add_function("f", irt.function_type(irt.i32, []))
        b = IRBuilder(fn.add_block("entry"))
        g = m.get_global("z")
        p = b.gep(t, g, [b.i64_(0), b.i64_(2)])
        b.ret(b.load(irt.i32, p))
        assert Interpreter(m).run("f", []) == 0


class TestIntrinsics:
    def test_sqrt(self):
        m = _unary_fn(
            lambda b, a: b.intrinsic("llvm.sqrt.f32", irt.f32, [a[0]]),
            param=irt.f32, ret=irt.f32,
        )
        assert Interpreter(m).run("f", [4.0]) == 2.0

    def test_fmuladd(self):
        m = _unary_fn(
            lambda b, a: b.intrinsic("llvm.fmuladd.f32", irt.f32, [a[0], a[1], a[2]]),
            param=irt.f32, ret=irt.f32, nparams=3,
        )
        assert Interpreter(m).run("f", [2.0, 3.0, 1.0]) == 7.0

    def test_smax_smin(self):
        m = _unary_fn(
            lambda b, a: b.intrinsic("llvm.smax.i32", irt.i32, [a[0], a[1]]),
            nparams=2,
        )
        assert Interpreter(m).run("f", [-5, 3]) == 3

    def test_memcpy(self):
        m = Module("cp")
        fn = m.add_function("f", irt.function_type(irt.void, [irt.ptr, irt.ptr]), ["d", "s"])
        b = IRBuilder(fn.add_block("entry"))
        b.intrinsic(
            "llvm.memcpy.p0.p0.i64", irt.void,
            [fn.arguments[0], fn.arguments[1], b.i64_(8),
             ConstantInt(irt.i1, 0)],
        )
        b.ret()
        src = buffer_from_numpy(np.array([1.5, 2.5], dtype=np.float32))
        dst = MemoryBuffer(8)
        Interpreter(m).run("f", [Pointer(dst), Pointer(src)])
        assert np.array_equal(
            numpy_from_buffer(dst, np.float32, (2,)), [1.5, 2.5]
        )

    def test_unknown_external_raises(self):
        m = Module("x")
        fn = m.add_function("f", irt.function_type(irt.void, []))
        b = IRBuilder(fn.add_block("entry"))
        b.intrinsic("mystery_fn", irt.void, [])
        b.ret()
        with pytest.raises(InterpreterError, match="mystery_fn"):
            Interpreter(m).run("f", [])


class TestControlFlow:
    def test_axpy_kernel(self):
        m = build_axpy_module()
        x = np.arange(5, dtype=np.float32)
        y = np.ones(5, dtype=np.float32)
        out = run_kernel(m, "axpy", {"x": x, "y": y}, {"a": 3.0, "n": 5})
        assert np.allclose(out["y"], 3 * x + 1)

    def test_zero_trip_loop(self):
        m = build_axpy_module()
        y = np.ones(4, dtype=np.float32)
        out = run_kernel(
            m, "axpy", {"x": np.zeros(4, dtype=np.float32), "y": y.copy()},
            {"a": 1.0, "n": 0},
        )
        assert np.array_equal(out["y"], y)

    def test_step_budget_catches_infinite_loop(self):
        m = Module("inf")
        fn = m.add_function("f", irt.function_type(irt.void, []))
        entry = fn.add_block("entry")
        loop = fn.add_block("loop")
        b = IRBuilder(entry)
        b.br(loop)
        b.position_at_end(loop)
        b.br(loop)
        with pytest.raises(InterpreterError, match="step budget"):
            Interpreter(m, max_steps=1000).run("f", [])

    def test_switch_dispatch(self):
        m = Module("sw")
        fn = m.add_function("f", irt.function_type(irt.i32, [irt.i32]), ["x"])
        entry = fn.add_block("entry")
        b10 = fn.add_block("ten")
        other = fn.add_block("other")
        b = IRBuilder(entry)
        b.switch(fn.arguments[0], other, [(ConstantInt(irt.i32, 10), b10)])
        b.position_at_end(b10)
        b.ret(b.i32_(100))
        b.position_at_end(other)
        b.ret(b.i32_(-1))
        interp = Interpreter(m)
        assert interp.run("f", [10]) == 100
        assert interp.run("f", [11]) == -1

    def test_nested_call(self):
        m = Module("calls")
        callee = m.add_function("sq", irt.function_type(irt.i32, [irt.i32]), ["x"])
        b = IRBuilder(callee.add_block("entry"))
        b.ret(b.mul(callee.arguments[0], callee.arguments[0]))
        caller = m.add_function("f", irt.function_type(irt.i32, [irt.i32]), ["x"])
        b = IRBuilder(caller.add_block("entry"))
        b.ret(b.call(callee, [caller.arguments[0]]))
        assert Interpreter(m).run("f", [7]) == 49

    def test_missing_argument_message(self):
        m = build_axpy_module()
        with pytest.raises(InterpreterError, match="argument 'a'"):
            run_kernel(
                m, "axpy",
                {"x": np.zeros(2, np.float32), "y": np.zeros(2, np.float32)},
                {"n": 2},
            )


class TestExactness:
    """Messages and step counts at every runtime check, pinned exactly."""

    def _straight_line(self, count: int) -> Module:
        m = Module("line")
        fn = m.add_function("f", irt.function_type(irt.i32, [irt.i32]), ["x"])
        b = IRBuilder(fn.add_block("entry"))
        acc = fn.arguments[0]
        for i in range(count):
            acc = b.add(acc, b.i32_(1), f"a{i}")
        b.ret(acc)
        return m

    def test_budget_trips_mid_block(self):
        interp = Interpreter(self._straight_line(10), max_steps=5)
        with pytest.raises(InterpreterError) as excinfo:
            interp.run("f", [0])
        assert str(excinfo.value) == (
            "step budget exceeded (5); possible infinite loop in @f"
        )
        assert interp.steps == 6

    def test_budget_exactly_fits(self):
        interp = Interpreter(self._straight_line(10), max_steps=11)
        assert interp.run("f", [0]) == 10
        assert interp.steps == 11

    def test_budget_trips_mid_loop_body(self):
        m = build_axpy_module()
        interp = Interpreter(m, max_steps=100)
        x = np.ones(50, dtype=np.float32)
        with pytest.raises(InterpreterError, match=r"\(100\); .* in @axpy$"):
            interp.run("axpy", [x, x.copy(), 1.0, 50])
        assert interp.steps == 101

    def test_budget_trips_inside_callee(self):
        m = self._straight_line(10)
        callee = m.get_function("f")
        caller = m.add_function("g", irt.function_type(irt.i32, [irt.i32]), ["y"])
        b = IRBuilder(caller.add_block("entry"))
        first = b.call(callee, [caller.arguments[0]], "first")
        b.ret(b.call(callee, [first], "second"))
        # g's first call is step 1, f runs steps 2..12, g's second call is
        # step 13 and f trips on its 7th add (step 20 > 19).
        interp = Interpreter(m, max_steps=19)
        with pytest.raises(InterpreterError) as excinfo:
            interp.run("g", [0])
        assert str(excinfo.value) == (
            "step budget exceeded (19); possible infinite loop in @f"
        )
        assert interp.steps == 20
        interp = Interpreter(m, max_steps=25)
        assert interp.run("g", [0]) == 20
        assert interp.steps == 25

    def test_error_mid_block_counts_steps_up_to_it(self):
        m = Module("oob")
        fn = m.add_function("f", irt.function_type(irt.f32, [irt.ptr]), ["p"])
        b = IRBuilder(fn.add_block("entry"))
        b.add(b.i32_(1), b.i32_(2), "pad")
        gep = b.gep(irt.f32, fn.arguments[0], [b.i64_(4)], "q")
        value = b.load(irt.f32, gep, "v")
        b.add(b.i32_(3), b.i32_(4), "after")
        b.ret(value)
        interp = Interpreter(m)
        with pytest.raises(InterpreterError) as excinfo:
            interp.run("f", [MemoryBuffer(16, "small")])
        assert str(excinfo.value) == (
            "out-of-bounds access to small: offset 16 size 4 in buffer of 16 bytes"
        )
        assert interp.steps == 3

    def test_undefined_value_on_non_dominated_path(self):
        m = Module("undef")
        fn = m.add_function("f", irt.function_type(irt.i32, [irt.i1, irt.i32]), ["c", "x"])
        entry, then, join = (fn.add_block(n) for n in ("entry", "then", "join"))
        b = IRBuilder(entry)
        b.cond_br(fn.arguments[0], then, join)
        b.position_at_end(then)
        v = b.add(fn.arguments[1], b.i32_(1), "v")
        b.br(join)
        b.position_at_end(join)
        b.ret(b.mul(v, b.i32_(2), "w"))
        interp = Interpreter(m)
        assert interp.run("f", [1, 4]) == 10
        with pytest.raises(InterpreterError) as excinfo:
            interp.run("f", [0, 4])
        assert str(excinfo.value) == "use of undefined value <BinaryOperator add %v>"
        assert interp.steps == 5 + 2

    def test_phi_missing_incoming_message(self):
        m = Module("phi")
        fn = m.add_function("f", irt.function_type(irt.i32, []))
        entry, side, join = (fn.add_block(n) for n in ("entry", "side", "join"))
        IRBuilder(entry).br(join)
        IRBuilder(side).br(join)
        b = IRBuilder(join)
        p = b.phi(irt.i32, "p")
        p.add_incoming(b.i32_(1), side)
        b.ret(p)
        with pytest.raises(InterpreterError) as excinfo:
            Interpreter(m).run("f", [])
        assert str(excinfo.value) == "phi %p missing incoming for %entry"

    def test_phi_in_entry_block_message(self):
        m = Module("phi")
        fn = m.add_function("f", irt.function_type(irt.i32, []))
        entry = fn.add_block("entry")
        b = IRBuilder(entry)
        p = b.phi(irt.i32, "p")
        p.add_incoming(b.i32_(1), entry)
        b.ret(p)
        interp = Interpreter(m)
        with pytest.raises(InterpreterError) as excinfo:
            interp.run("f", [])
        assert str(excinfo.value) == (
            "phi in entry-reached block %entry with no predecessor"
        )
        assert interp.steps == 0

    def test_phis_copy_in_parallel(self):
        # swap(a, b) on every back edge: a sequential copy would alias.
        m = Module("swap")
        fn = m.add_function("f", irt.function_type(irt.i32, [irt.i32]), ["n"])
        entry, loop, done = (fn.add_block(x) for x in ("entry", "loop", "done"))
        IRBuilder(entry).br(loop)
        b = IRBuilder(loop)
        a = b.phi(irt.i32, "a")
        c = b.phi(irt.i32, "c")
        i = b.phi(irt.i32, "i")
        nxt = b.add(i, b.i32_(1), "i.next")
        b.cond_br(b.icmp("slt", nxt, fn.arguments[0], "more"), loop, done)
        a.add_incoming(b.i32_(1), entry)
        a.add_incoming(c, loop)
        c.add_incoming(b.i32_(2), entry)
        c.add_incoming(a, loop)
        i.add_incoming(b.i32_(0), entry)
        i.add_incoming(nxt, loop)
        b.position_at_end(done)
        b.ret(b.sub(a, c, "diff"))
        assert Interpreter(m).run("f", [3]) == -1
        assert Interpreter(m).run("f", [4]) == 1

    def test_fell_through_message(self):
        m = Module("fall")
        fn = m.add_function("f", irt.function_type(irt.void, []))
        b = IRBuilder(fn.add_block("entry"))
        b.add(b.i32_(1), b.i32_(2), "x")
        interp = Interpreter(m)
        with pytest.raises(InterpreterError) as excinfo:
            interp.run("f", [])
        assert str(excinfo.value) == "block %entry fell through"
        assert interp.steps == 1

    def test_unreachable_message(self):
        m = Module("unr")
        fn = m.add_function("f", irt.function_type(irt.void, []))
        IRBuilder(fn.add_block("entry")).unreachable()
        interp = Interpreter(m)
        with pytest.raises(InterpreterError) as excinfo:
            interp.run("f", [])
        assert str(excinfo.value) == "reached 'unreachable' in @f"
        assert interp.steps == 1

    def test_edit_between_runs_is_seen(self):
        m = Module("edit")
        fn = m.add_function("f", irt.function_type(irt.i32, [irt.i32]), ["x"])
        b = IRBuilder(fn.add_block("entry"))
        inc = b.add(fn.arguments[0], b.i32_(1), "inc")
        ret = b.ret(inc)
        interp = Interpreter(m)
        assert interp.run("f", [1]) == 2
        version = fn.version
        inc.set_operand(1, ConstantInt(irt.i32, 10))
        assert fn.version != version
        assert interp.run("f", [1]) == 11
        doubled = b.mul(inc, b.i32_(2), "dbl")
        doubled.remove_from_parent()
        fn.entry.insert_before(ret, doubled)
        ret.set_operand(0, doubled)
        assert interp.run("f", [1]) == 22
        assert interp.steps == 2 + 2 + 3

    def test_a_run_leaves_no_reference_cycles(self):
        """Decoded functions die with their interpreter by reference
        counting, so back-to-back equivalence checks do not pile up
        garbage between cycle collections."""
        m = build_axpy_module()
        x = np.arange(8, dtype=np.float32)
        gc.collect()
        gc.disable()
        try:
            run_kernel(m, "axpy", {"x": x, "y": x.copy()}, {"a": 2.0, "n": 8})
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_instructions_after_the_first_terminator_never_run(self):
        # The dominator tree sees %dead's block dominate %exit, but the
        # interpreter leaves %entry at its first terminator, so the use
        # stays checked.
        m = Module("mid")
        fn = m.add_function("f", irt.function_type(irt.i32, []))
        entry, exit_ = fn.add_block("entry"), fn.add_block("exit")
        b = IRBuilder(entry)
        b.br(exit_)
        dead = b.add(b.i32_(1), b.i32_(2), "dead")
        b.br(exit_)
        b.position_at_end(exit_)
        b.ret(dead)
        interp = Interpreter(m)
        with pytest.raises(InterpreterError) as excinfo:
            interp.run("f", [])
        assert str(excinfo.value) == "use of undefined value <BinaryOperator add %dead>"
        assert interp.steps == 2

    def test_ill_typed_operands_fail_like_the_helpers(self):
        # Operand rewrites skip type checks; the decoded fast paths must
        # then fail exactly as the value-level helpers do.
        m = Module("ill")
        fn = m.add_function(
            "f", irt.function_type(irt.i32, [irt.ptr, irt.i32]), ["p", "x"]
        )
        b = IRBuilder(fn.add_block("entry"))
        q = b.gep(irt.i32, fn.arguments[0], [b.i64_(1)], "q")
        v = b.load(irt.i32, q, "v")
        b.ret(b.add(v, fn.arguments[1], "sum"))
        buf = MemoryBuffer(8, "buf")
        assert Interpreter(m).run("f", [Pointer(buf), 3]) == 3
        q.set_operand(1, fn.arguments[0])
        with pytest.raises(TypeError, match="int\\(\\) argument must be"):
            Interpreter(m).run("f", [Pointer(buf), 3])
        q.set_operand(1, b.i64_(1))
        fn.entry.instructions[-2].set_operand(1, ConstantFloat(irt.f32, 2.5))
        with pytest.raises(TypeError, match="for &: 'float' and 'int'"):
            Interpreter(m).run("f", [Pointer(buf), 3])
