"""Interpreter goldens: outputs, step counts and error texts, pinned.

Each case runs one module through :mod:`repro.ir.interpreter` and records
the SHA-256 of every output array, the ``steps`` the run took, or the
``Type: message`` of the error it raised (with the ``steps`` counted up to
it where the :class:`Interpreter` is reachable).  The JSON files under
``interpreter/`` were written by the previous (instruction-dispatch)
engine and are diffed, never regenerated, by the decoded engine: they are
the old-versus-new equivalence proof, so no second engine has to stay in
the tree.  An intentional semantic change regenerates them with::

    pytest tests/golden/test_interpreter_goldens.py --update-goldens -m ''

Case groups:

* ``flows-mini`` / ``flows-small``: the 15 kernels' final modules from
  both flows (``optimized`` config), run with :func:`run_kernel`;
* ``descriptor-mini``: the pre-adaptor (memref-descriptor) modules, run
  with :func:`run_descriptor_kernel`;
* ``corpus``: the hostile-IR seeds, pre-adaptor, and post-adaptor for
  the seeds the adaptor accepts;
* ``modulegen``: :class:`repro.testing.modulegen.RandomModuleGenerator`
  seeds, with a probe global that captures every scalar the kernel
  computes;
* ``errors``: runs that trip the step budget, a bounds check or a
  non-pointer access, with the step count at the failure.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
from typing import Callable, Dict, List

import numpy as np
import pytest

from repro.flows import OptimizationConfig, run_adaptor_flow, run_cpp_flow
from repro.ir import IRBuilder, Interpreter, Module
from repro.ir import types as irt
from repro.ir.interpreter import (
    MemoryBuffer,
    Pointer,
    run_descriptor_kernel,
    run_kernel,
)
from repro.ir.parser import parse_module
from repro.ir.values import ConstantAggregateZero
from repro.observability import StatisticsRegistry, use_statistics
from repro.testing import adapt_or_reject
from repro.testing.modulegen import RandomModuleGenerator
from repro.workloads import build_kernel
from repro.workloads.suite import SUITE_SIZES

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "interpreter")
CORPUS_DIR = os.path.join(os.path.dirname(__file__), "..", "corpus", "seeds")
KERNELS = sorted(SUITE_SIZES["MINI"])
INPUT_SEED = 3
MODULEGEN_SEEDS = range(60)


def _digest(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def _error_text(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def _run_counted(runner: Callable[[], Dict[str, np.ndarray]]) -> dict:
    """Run a ``run_kernel``-style call; record output digests and the
    ``interpreter.steps`` it bumped, or the error it raised."""
    registry = StatisticsRegistry()
    try:
        with use_statistics(registry):
            outputs = runner()
    except Exception as exc:  # noqa: BLE001 - the error text is the result
        return {"error": _error_text(exc)}
    return {
        "outputs": {name: _digest(arr) for name, arr in sorted(outputs.items())},
        "steps": registry.get("interpreter", "steps"),
    }


def _run_interpreter(interp: Interpreter, fn, args) -> dict:
    """Run through an :class:`Interpreter` directly, so the step count is
    readable after an error too."""
    try:
        result = interp.run(fn, args)
    except Exception as exc:  # noqa: BLE001
        return {"error": _error_text(exc), "steps": interp.steps}
    return {"result": repr(result), "steps": interp.steps}


# -- flows -------------------------------------------------------------------


def _flow_modules(kernel: str, size: str):
    sizes = SUITE_SIZES[size][kernel]
    config = OptimizationConfig.optimized()
    spec_a = build_kernel(kernel, **sizes)
    config.apply(spec_a)
    adaptor = run_adaptor_flow(spec_a, keep_modern_snapshot=True)
    spec_c = build_kernel(kernel, **sizes)
    config.apply(spec_c)
    cpp = run_cpp_flow(spec_c)
    oracle = build_kernel(kernel, **sizes)
    return adaptor, cpp, oracle


def _flow_cases(size: str) -> Dict[str, dict]:
    cases = {}
    for kernel in KERNELS:
        adaptor, cpp, spec = _flow_modules(kernel, size)
        arrays = spec.make_inputs(INPUT_SEED)
        for flow, module in (("adaptor", adaptor.ir_module), ("cpp", cpp.ir_module)):
            cases[f"{kernel}/{flow}"] = _run_counted(
                lambda module=module: run_kernel(
                    module, kernel,
                    {k: v.copy() for k, v in arrays.items()}, spec.scalar_args,
                )
            )
    return cases


def _descriptor_cases() -> Dict[str, dict]:
    cases = {}
    for kernel in KERNELS:
        adaptor, _cpp, spec = _flow_modules(kernel, "MINI")
        arrays = spec.make_inputs(INPUT_SEED)
        cases[kernel] = _run_counted(
            lambda: run_descriptor_kernel(
                adaptor.modern_ir_module, kernel,
                {k: v.copy() for k, v in arrays.items()}, spec.scalar_args,
            )
        )
    return cases


# -- corpus ------------------------------------------------------------------


def _corpus_cases(tmp_dir: str) -> Dict[str, dict]:
    spec = build_kernel("gemm", **SUITE_SIZES["MINI"]["gemm"])
    rng = np.random.default_rng(INPUT_SEED)
    arrays = {
        name: rng.standard_normal((4, 4)).astype(np.float32)
        for name in ("A", "B", "C")
    }
    scalars = {"alpha": 1.5, "beta": 1.2}
    assert set(spec.scalar_args) == set(scalars)
    cases = {}
    for path in sorted(glob.glob(os.path.join(CORPUS_DIR, "*.ll"))):
        seed = os.path.splitext(os.path.basename(path))[0]
        with open(path) as fh:
            text = fh.read()
        module = parse_module(text)
        cases[f"{seed}/pre"] = _run_counted(
            lambda: run_descriptor_kernel(
                module, "gemm", {k: v.copy() for k, v in arrays.items()}, scalars
            )
        )
        module = parse_module(text)
        outcome, _payload = adapt_or_reject(module, reproducer_dir=tmp_dir)
        if outcome == "adapted":
            cases[f"{seed}/post"] = _run_counted(
                lambda: run_descriptor_kernel(
                    module, "gemm", {k: v.copy() for k, v in arrays.items()}, scalars
                )
            )
    return cases


# -- modulegen ---------------------------------------------------------------


def _add_probe(module: Module) -> None:
    """Store every scalar the kernel's entry block and return block compute
    into a ``@__probe`` global, just before the final ``ret``."""
    fn = module.get_function("kernel")
    ret_block = fn.blocks[-1]
    values = [
        inst
        for block in {id(fn.entry): fn.entry, id(ret_block): ret_block}.values()
        for inst in block.instructions
        if inst.type.is_integer or inst.type.is_float
    ]
    probe_type = irt.array_of(irt.i64, max(1, 2 * len(values)))
    probe = module.add_global("__probe", probe_type, ConstantAggregateZero(probe_type))
    b = IRBuilder(ret_block)
    b.position_before(ret_block.terminator)
    for i, value in enumerate(values):
        slot = b.gep(probe_type, probe, [b.i64_(0), b.i64_(2 * i)])
        if value.type.is_integer:
            wide = value if value.type is irt.i64 else b.sext(value, irt.i64)
            b.store(wide, slot)
        else:
            wide = value if value.type is irt.f64 else b.cast("fpext", value, irt.f64)
            b.store(wide, slot)


def _modulegen_args(fn, sign: int) -> List[object]:
    args: List[object] = []
    for i, param in enumerate(fn.arguments):
        if param.type.is_integer:
            args.append(sign * (7 * i + 5))
        elif param.type.is_float:
            args.append(sign * (1.25 * i + 0.5))
        else:
            args.append(Pointer(MemoryBuffer(64, param.name)))
    return args


def _modulegen_cases() -> Dict[str, dict]:
    cases = {}
    for seed in MODULEGEN_SEEDS:
        module = RandomModuleGenerator(seed=seed).generate()
        _add_probe(module)
        fn = module.get_function("kernel")
        for sign in (1, -1):
            interp = Interpreter(module)
            case = _run_interpreter(interp, fn, _modulegen_args(fn, sign))
            case["probe"] = hashlib.sha256(
                bytes(interp.globals["__probe"].buffer.data)
            ).hexdigest()
            cases[f"{seed}/{'+' if sign > 0 else '-'}"] = case
    return cases


# -- errors ------------------------------------------------------------------


def _error_cases() -> Dict[str, dict]:
    cases = {}
    adaptor, cpp, spec = _flow_modules("gemm", "MINI")
    arrays = spec.make_inputs(INPUT_SEED)
    for flow, module in (("adaptor", adaptor.ir_module), ("cpp", cpp.ir_module)):
        fn = module.get_function("gemm")

        def args(arrays=arrays):
            return [
                arrays[a.name].copy() if a.name in arrays else spec.scalar_args[a.name]
                for a in fn.arguments
            ]

        for budget in (1, 17, 250, 1001):
            cases[f"gemm/{flow}/budget-{budget}"] = _run_interpreter(
                Interpreter(module, max_steps=budget), fn, args()
            )
        short = [
            MemoryBuffer(20, a.name) if a.name in arrays else spec.scalar_args[a.name]
            for a in fn.arguments
        ]
        cases[f"gemm/{flow}/short-buffers"] = _run_interpreter(
            Interpreter(module), fn, short
        )
        scalar_for_pointer = [
            3 if a.name in arrays else spec.scalar_args[a.name] for a in fn.arguments
        ]
        cases[f"gemm/{flow}/scalar-for-pointer"] = _run_interpreter(
            Interpreter(module), fn, scalar_for_pointer
        )
    return cases


# -- harness -----------------------------------------------------------------

GROUPS = {
    "flows-mini": lambda tmp: _flow_cases("MINI"),
    "flows-small": lambda tmp: _flow_cases("SMALL"),
    "descriptor-mini": lambda tmp: _descriptor_cases(),
    "corpus": _corpus_cases,
    "modulegen": lambda tmp: _modulegen_cases(),
    "errors": lambda tmp: _error_cases(),
}
SLOW_GROUPS = {"flows-small"}


def _golden_path(group: str) -> str:
    return os.path.join(GOLDEN_DIR, f"{group}.json")


@pytest.mark.parametrize(
    "group",
    [
        pytest.param(g, marks=pytest.mark.slow) if g in SLOW_GROUPS else g
        for g in GROUPS
    ],
)
def test_interpreter_golden(group, tmp_path, update_goldens):
    got = GROUPS[group](str(tmp_path))
    path = _golden_path(group)
    if update_goldens:
        os.makedirs(GOLDEN_DIR, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(got, fh, indent=1, sort_keys=True)
            fh.write("\n")
        return
    with open(path) as fh:
        want = json.load(fh)
    assert sorted(got) == sorted(want)
    mismatched = [case for case in want if got[case] != want[case]]
    assert not mismatched, {case: (want[case], got[case]) for case in mismatched}


def test_goldens_cover_errors_and_successes():
    """The pinned set is not vacuous: it holds both clean runs and each
    family of runtime error."""
    texts = []
    for group in GROUPS:
        with open(_golden_path(group)) as fh:
            texts.extend(json.load(fh).values())
    errors = " | ".join(case["error"] for case in texts if "error" in case)
    assert sum("outputs" in case for case in texts) >= 30
    for fragment in (
        "step budget exceeded",
        "out-of-bounds access",
        "through non-pointer",
    ):
        assert fragment in errors
