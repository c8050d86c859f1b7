"""Cache-key fingerprints: stability and sensitivity."""

from __future__ import annotations

import pytest

from repro.flows import OptimizationConfig
from repro.service import (
    CompilationService,
    cache_key,
    config_fingerprint,
    kernel_fingerprint,
    pipeline_fingerprint,
)
from repro.service import fingerprint as fp_mod
from repro.workloads import polybench
from repro.workloads.suite import SUITE_SIZES

GEMM_MINI = SUITE_SIZES["MINI"]["gemm"]


class TestStability:
    def test_pipeline_fingerprint_stable(self):
        assert pipeline_fingerprint() == pipeline_fingerprint()

    def test_kernel_fingerprint_stable(self):
        assert kernel_fingerprint("gemm", GEMM_MINI) == kernel_fingerprint(
            "gemm", GEMM_MINI
        )

    def test_config_fingerprint_ignores_object_identity(self):
        a = OptimizationConfig.optimized(ii=2)
        b = OptimizationConfig.optimized(ii=2)
        assert a is not b
        assert config_fingerprint(a) == config_fingerprint(b)

    def test_cache_key_stable(self):
        cfg = OptimizationConfig.baseline()
        assert cache_key("gemm", GEMM_MINI, cfg) == cache_key("gemm", GEMM_MINI, cfg)


class TestSensitivity:
    def test_config_changes_key(self):
        base = cache_key("gemm", GEMM_MINI, OptimizationConfig.baseline())
        opt = cache_key("gemm", GEMM_MINI, OptimizationConfig.optimized(ii=1))
        assert base != opt

    def test_config_field_changes_fingerprint(self):
        a = config_fingerprint(OptimizationConfig.optimized(ii=1))
        b = config_fingerprint(OptimizationConfig.optimized(ii=2))
        assert a != b

    def test_sizes_change_key(self):
        cfg = OptimizationConfig.baseline()
        mini = cache_key("gemm", GEMM_MINI, cfg)
        small = cache_key("gemm", SUITE_SIZES["SMALL"]["gemm"], cfg)
        assert mini != small

    def test_kernel_ir_changes_key(self):
        cfg = OptimizationConfig.baseline()
        gemm = cache_key("gemm", GEMM_MINI, cfg)
        atax = cache_key("atax", SUITE_SIZES["MINI"]["atax"], cfg)
        assert gemm != atax

    def test_seed_equivalence_device_change_key(self):
        cfg = OptimizationConfig.baseline()
        base = cache_key("gemm", GEMM_MINI, cfg)
        assert cache_key("gemm", GEMM_MINI, cfg, seed=1) != base
        assert cache_key("gemm", GEMM_MINI, cfg, check_equivalence=False) != base
        assert cache_key("gemm", GEMM_MINI, cfg, device="other") != base

    def test_pipeline_version_bump_changes_key(self, monkeypatch):
        cfg = OptimizationConfig.baseline()
        before = cache_key("gemm", GEMM_MINI, cfg)
        monkeypatch.setattr(fp_mod, "PIPELINE_VERSION", fp_mod.PIPELINE_VERSION + 1)
        assert cache_key("gemm", GEMM_MINI, cfg) != before


class TestKernelHashMemo:
    """``kernel_fingerprint`` rebuilds and prints the kernel, so it is
    memoised per process on (kernel, sorted sizes)."""

    @pytest.fixture
    def builds(self, monkeypatch):
        calls = []
        real = polybench.build_kernel

        def counting_build(name, **sizes):
            calls.append((name, sizes))
            return real(name, **sizes)

        monkeypatch.setattr(polybench, "build_kernel", counting_build)
        fp_mod.kernel_fingerprint.cache_clear()
        yield calls
        fp_mod.kernel_fingerprint.cache_clear()

    def test_same_kernel_and_sizes_build_once(self, builds):
        cfg = OptimizationConfig.baseline()
        cache_key("gemm", GEMM_MINI, cfg)
        reordered = dict(reversed(list(GEMM_MINI.items())))
        cache_key("gemm", reordered, OptimizationConfig.optimized(ii=1), seed=3)
        assert len(builds) == 1
        cache_key("gemm", SUITE_SIZES["SMALL"]["gemm"], cfg)
        assert len(builds) == 2

    def test_warm_hit_builds_no_kernel(self, builds, tmp_path):
        service = CompilationService(cache_dir=str(tmp_path))
        kwargs = dict(sizes=GEMM_MINI, check_equivalence=False)
        assert service.compile_one("gemm", **kwargs).cache_status == "miss"
        built = len(builds)
        assert service.compile_one("gemm", **kwargs).cache_status == "hit"
        assert len(builds) == built
