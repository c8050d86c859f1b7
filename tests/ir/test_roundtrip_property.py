"""Property-based printer/parser roundtrip over generated whole modules.

``RandomModuleGenerator`` builds verifier-clean modules spanning the
instruction/type/attribute corners the corpus seeds miss (odd integer
widths, half/double, nuw/exact flags, fast-math sets, nested-array geps,
aggregates, switches, both loop-metadata dialects).  For every seed the
printed text must parse back and re-print to the identical fixed point,
and the parsed module must still verify.  The same fixed point must hold
on real pipeline output: both flows' final modules for every MINI kernel,
whose block use lists transforms have left out of textual order.
"""

from __future__ import annotations

import pytest

from repro.flows import OptimizationConfig, compare_flows
from repro.ir import parse_module, print_module, verify_module
from repro.testing import RandomModuleGenerator
from repro.workloads.suite import SUITE_SIZES

SEEDS = list(range(40))


@pytest.mark.parametrize("seed", SEEDS)
def test_random_module_roundtrip_fixpoint(seed):
    module = RandomModuleGenerator(seed).generate()
    verify_module(module)

    text = print_module(module)
    parsed = parse_module(text)
    verify_module(parsed)
    reprinted = print_module(parsed)
    assert reprinted == text, f"seed {seed}: print∘parse is not a fixed point"

    # Second roundtrip is the identity once the first has stabilised.
    assert print_module(parse_module(reprinted)) == reprinted


def test_generator_is_deterministic():
    a = print_module(RandomModuleGenerator(7).generate())
    b = print_module(RandomModuleGenerator(7).generate())
    assert a == b


def test_generator_seeds_differ():
    texts = {print_module(RandomModuleGenerator(s).generate()) for s in range(10)}
    assert len(texts) > 1


def test_generated_modules_cover_corners():
    """The generator population actually exercises the corner features."""
    corpus = "\n".join(
        print_module(RandomModuleGenerator(s).generate()) for s in range(40)
    )
    for needle in (
        "i16",  # odd integer widths
        "half",
        "double",
        "fast",  # fast-math flags
        "nuw",
        "exact",
        "insertvalue",
        "phi",
        "!llvm.loop",
        "alloca",
        "select",
    ):
        assert needle in corpus, f"generator never produced {needle!r}"


@pytest.mark.parametrize("kernel", sorted(SUITE_SIZES["MINI"]))
def test_pipeline_output_roundtrip_fixpoint(kernel):
    comparison = compare_flows(
        kernel,
        SUITE_SIZES["MINI"][kernel],
        OptimizationConfig.optimized(ii=1),
        check_equivalence=False,
    )
    for flow in (comparison.adaptor, comparison.cpp):
        text = print_module(flow.ir_module)
        parsed = parse_module(text)
        # The ``; preds =`` order is restored, not rebuilt from the text.
        assert print_module(parsed) == text, f"{kernel}: print∘parse moved"
