import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rftag
from rftag.rf import (
    ArchSpec,
    LayerSpec,
    TemplateConfig,
    apply_rho,
    arch_from_text,
    arch_to_text,
    compute_rf,
    max_rho_for_budget,
)

from oracles import chain_receptive_field, empirical_rf


def conv(name, k, s=1, p=0, adjustable=False):
    return LayerSpec(name, "conv", (k, k), (s, s), (p, p), adjustable)


def chain(*layers):
    return ArchSpec(layers=list(layers))


class TestComputeRf:
    def test_single_3x3(self):
        report = compute_rf(chain(conv("c1", 3)))
        assert (report.rf_freq, report.rf_time) == (3, 3)

    def test_two_stacked_3x3(self):
        report = compute_rf(chain(conv("c1", 3), conv("c2", 3)))
        assert (report.rf_freq, report.rf_time) == (5, 5)
        assert empirical_rf(chain(conv("c1", 3), conv("c2", 3))) == (5, 5)

    def test_strided_then_plain(self):
        arch = chain(conv("c1", 5, s=2), conv("c2", 3))
        report = compute_rf(arch)
        assert report.rf_freq == 5 + (3 - 1) * 2 == 9
        assert empirical_rf(arch) == (9, 9)

    def test_matches_chain_recurrence_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            ks = [(int(rng.choice([1, 3, 5])), int(rng.choice([1, 2]))) for _ in range(5)]
            arch = chain(*[conv(f"c{i}", k, s=s) for i, (k, s) in enumerate(ks)])
            r, _ = chain_receptive_field(ks)
            assert compute_rf(arch).rf_freq == r

    def test_rf_and_jump_nondecreasing(self):
        arch = chain(conv("a", 3, s=2), conv("b", 1), conv("c", 5), conv("d", 3, s=2))
        report = compute_rf(arch)
        rs = [r.r_freq for r in report.rows]
        js = [r.j_freq for r in report.rows]
        assert rs == sorted(rs) and js == sorted(js)
        assert min(rs) >= 1 and min(js) >= 1

    def test_cyclic_skip_rejected(self):
        with pytest.raises(ValueError, match="cyclic"):
            ArchSpec(layers=[conv("a", 3), conv("b", 3)], skips=[("b", "a")])

    def test_unknown_skip_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            ArchSpec(layers=[conv("a", 3)], skips=[("a", "zz")])

    def test_residual_merge_takes_max(self):
        # two 3x3 convs with identity skip: max(5, 3-at-entry) = 5
        arch = ArchSpec(
            layers=[conv("entry", 3, p=1), conv("b1", 3, p=1), conv("b2", 3, p=1)],
            skips=[("entry", "b2")])
        report = compute_rf(arch)
        assert report.rf_freq == 7


class TestEmpiricalRf:
    def test_single_conv(self):
        assert empirical_rf(chain(conv("c", 3))) == (3, 3)

    def test_random_architectures_match_analytic(self):
        rng = np.random.default_rng(1)
        for trial in range(20):
            depth = int(rng.integers(1, 7))
            layers = []
            for i in range(depth):
                if rng.uniform() < 0.25 and i > 0:
                    k = int(rng.choice([2, 3]))
                    layers.append(LayerSpec(f"p{i}", "pool", (k, k), (k, k)))
                else:
                    kf = int(rng.choice([1, 3, 5]))
                    kt = int(rng.choice([1, 3, 5]))
                    s = int(rng.choice([1, 2]))
                    pf, pt = int(rng.integers(0, 3)), int(rng.integers(0, 3))
                    layers.append(LayerSpec(f"c{i}", "conv", (kf, kt), (s, s), (pf, pt)))
            arch = ArchSpec(layers=layers)
            report = compute_rf(arch)
            assert empirical_rf(arch) == (report.rf_freq, report.rf_time), f"trial {trial}"

    def test_residual_block_union_of_paths(self):
        arch = ArchSpec(
            layers=[conv("b1", 3, p=1), conv("b2", 3, p=1)],
            skips=[])
        assert empirical_rf(arch) == (5, 5)
        # with an identity skip around both convs the union is still 5
        arch2 = ArchSpec(
            layers=[conv("pre", 1), conv("b1", 3, p=1), conv("b2", 3, p=1)],
            skips=[("pre", "b2")])
        assert compute_rf(arch2).rf_freq == 5
        assert empirical_rf(arch2) == (5, 5)


class TestRhoSizing:
    def template(self, **kw):
        kw.setdefault("n_stages", 2)
        kw.setdefault("blocks_per_stage", 1)
        kw.setdefault("channel_plan", (4, 8))
        return TemplateConfig(**kw).make()

    def test_rho_max_is_identity(self):
        tpl = self.template()
        arch = apply_rho(tpl, len(tpl.adjustable_layers()))
        assert arch_to_text(arch) == arch_to_text(tpl)

    def test_rho_zero_all_freq_kernels_one(self):
        tpl = self.template()
        arch = apply_rho(tpl, 0)
        for layer in arch.adjustable_layers():
            assert layer.kernel[0] == 1
        # adjustable layers then contribute nothing to the frequency RF
        base_rf = compute_rf(arch).rf_freq
        only_fixed = ArchSpec(layers=[l for l in arch.layers if not l.adjustable],
                              skips=[])
        assert base_rf == compute_rf(only_fixed).rf_freq

    def test_time_axis_untouched_by_default(self):
        tpl = self.template()
        rf_times = {compute_rf(apply_rho(tpl, rho)).rf_time
                    for rho in range(len(tpl.adjustable_layers()) + 1)}
        assert len(rf_times) == 1

    def test_rho_monotone_in_freq(self):
        tpl = self.template()
        rfs = [compute_rf(apply_rho(tpl, rho)).rf_freq
               for rho in range(len(tpl.adjustable_layers()) + 1)]
        assert rfs == sorted(rfs)
        assert all(a <= b for a, b in zip(rfs, rfs[1:]))

    def test_rho_time_independent(self):
        tpl = self.template()
        arch = apply_rho(tpl, len(tpl.adjustable_layers()), rho_time=0)
        report = compute_rf(arch)
        full = compute_rf(apply_rho(tpl, len(tpl.adjustable_layers())))
        assert report.rf_freq == full.rf_freq
        assert report.rf_time < full.rf_time

    @pytest.mark.parametrize("kw,message", [
        (dict(time_kernel=2), "time_kernel must be odd and >= 1, got 2"),
        (dict(time_kernel=4), "time_kernel must be odd and >= 1, got 4"),
        (dict(time_kernel=0), "time_kernel must be odd and >= 1, got 0"),
        (dict(time_kernel=-1), "time_kernel must be odd and >= 1, got -1"),
        (dict(n_stages=0, channel_plan=()), "n_stages must be >= 1, got 0"),
        (dict(blocks_per_stage=0), "blocks_per_stage must be >= 1, got 0"),
        (dict(channel_plan=(4, 0)), r"channel_plan widths must be >= 1, got \(4, 0\)"),
        (dict(channel_plan=(-2, 8)), r"channel_plan widths must be >= 1, got \(-2, 8\)"),
        (dict(pool_stages=9), r"pool_stages must lie in \[0, 2\], got 9"),
        (dict(pool_stages=-1), r"pool_stages must lie in \[0, 2\], got -1"),
    ], ids=["time-2", "time-4", "time-0", "time-neg", "stages", "blocks", "width-0", "width-neg",
            "pool-9", "pool-neg"])
    def test_unbuildable_template_names_the_field(self, kw, message):
        with pytest.raises(ValueError, match=message):
            self.template(**kw)

    def test_rho_out_of_range(self):
        tpl = self.template()
        with pytest.raises(ValueError, match="rho"):
            apply_rho(tpl, len(tpl.adjustable_layers()) + 1)


class TestBudgetSearch:
    def test_floor_case(self):
        tpl = TemplateConfig(n_stages=2, blocks_per_stage=1, channel_plan=(4, 8)).make()
        floor = compute_rf(apply_rho(tpl, 0)).rf_freq
        assert max_rho_for_budget(tpl, floor) == 0

    def test_ceiling_case(self):
        tpl = TemplateConfig(n_stages=2, blocks_per_stage=1, channel_plan=(4, 8)).make()
        assert max_rho_for_budget(tpl, 10 ** 9) == len(tpl.adjustable_layers())

    def test_below_floor_rejected(self):
        tpl = TemplateConfig(n_stages=2, blocks_per_stage=1, channel_plan=(4, 8)).make()
        floor = compute_rf(apply_rho(tpl, 0)).rf_freq
        with pytest.raises(ValueError, match=str(floor)):
            max_rho_for_budget(tpl, floor - 1)

    def test_maximality_exhaustive(self):
        tpl = TemplateConfig(n_stages=3, blocks_per_stage=2, channel_plan=(4, 8, 8)).make()
        rfs = [compute_rf(apply_rho(tpl, rho)).rf_freq
               for rho in range(len(tpl.adjustable_layers()) + 1)]
        for budget in range(rfs[0], rfs[-1] + 5):
            rho = max_rho_for_budget(tpl, budget)
            assert rfs[rho] <= budget
            if rho < len(tpl.adjustable_layers()):
                assert rfs[rho + 1] > budget


class TestDefaultTemplate:
    def test_shape_of_default(self):
        tpl = TemplateConfig().make()
        assert len(tpl.adjustable_layers()) == 24
        assert tpl.channel_plan == (32, 64, 128, 256)
        kinds = [l.kind for l in tpl.layers]
        assert kinds.count("pool") == 2

    def test_known_rf_values(self):
        tpl = TemplateConfig().make()
        assert compute_rf(apply_rho(tpl, 0)).rf_freq == 13
        assert compute_rf(apply_rho(tpl, 24)).rf_freq == 349
        assert compute_rf(apply_rho(tpl, 24)).rf_time == 349

    def test_padding_never_affects_rf(self):
        tpl = TemplateConfig(n_stages=2, blocks_per_stage=1, channel_plan=(4, 8)).make()
        arch = apply_rho(tpl, 2)
        from dataclasses import replace
        stripped = ArchSpec(
            layers=[replace(l, padding=(0, 0)) for l in arch.layers],
            skips=[])
        assert compute_rf(stripped).rf_freq == compute_rf(arch).rf_freq


class TestReportTable:
    def test_default_template_at_rho_zero(self):
        arch = apply_rho(TemplateConfig().make(), 0)
        report = compute_rf(arch)
        lines = report.as_table().splitlines()
        assert lines[0].split() == ["layer", "rf_f", "jump_f", "rf_t", "jump_t"]
        assert len(lines) == 1 + len(arch.layers) + 1
        assert len({len(line) for line in lines[:-1]}) == 1  # aligned columns
        for line, layer, row in zip(lines[1:-1], arch.layers, report.rows):
            assert line.split() == [layer.name] + [str(v) for v in (row.r_freq, row.j_freq,
                                                                    row.r_time, row.j_time)]
        assert lines[1].split() == ["in1", "3", "2", "3", "2"]
        assert lines[-1] == (f"final receptive field: freq={report.rf_freq} "
                             f"time={report.rf_time}")
        assert lines[-1] == "final receptive field: freq=13 time=349"


class TestArchText:
    def test_roundtrip(self):
        tpl = TemplateConfig(n_stages=2, blocks_per_stage=2, channel_plan=(8, 16)).make()
        arch = apply_rho(tpl, 2)
        text = arch_to_text(arch)
        back = arch_from_text(text)
        assert arch_to_text(back) == text
        assert compute_rf(back).rf_freq == compute_rf(arch).rf_freq

    def test_parse_error_names_line(self):
        with pytest.raises(ValueError, match="line 2"):
            arch_from_text("channels 32\nnot a valid layer line at all extra\n")

    def test_marker_kind_names_line(self):
        text = "channels 32\nc1 conv 3,3 1,1 1,1 0\nb1 block_entry 1,1 1,1 0,0 0\n"
        with pytest.raises(ValueError, match=r"line 3: .*unknown kind 'block_entry'"):
            arch_from_text(text)

    def test_adjustable_pool_names_line(self):
        text = "c1 conv 3,3 1,1 1,1 1\np1 pool 2,2 2,2 0,0 1\n"
        with pytest.raises(ValueError, match=r"line 2: .*only a conv can be adjustable"):
            arch_from_text(text)

    @pytest.mark.parametrize("flag", ["2", "Fasle", "true", "-1"])
    def test_adjustable_flag_must_be_0_or_1(self, flag):
        with pytest.raises(ValueError, match=f"line 2: .*adjustable flag must be 0 or 1, "
                                             f"got '{flag}'"):
            arch_from_text(f"channels 8\nc1 conv 3,3 1,1 1,1 {flag}\n")

    @pytest.mark.parametrize("fields,what", [
        ("3 1,1 1,1", "kernel"), ("3,3,3 1,1 1,1", "kernel"), ("0,3 1,1 1,1", "kernel"),
        ("3,3 1 1,1", "stride"), ("3,3 1,0 1,1", "stride"),
        ("3,3 1,1 -1,0", "padding"), ("3,3 1,1 1", "padding"),
    ])
    def test_bad_geometry_names_line_and_layer(self, fields, what):
        with pytest.raises(ValueError, match=rf"line 1: .*layer c1: {what} must be a "
                                             rf"\(freq, time\) pair"):
            arch_from_text(f"c1 conv {fields} 0\n")

    def test_axis_independence(self):
        # changing only time kernels leaves frequency RF unchanged
        a1 = chain(LayerSpec("c1", "conv", (3, 3), (1, 1), (1, 1)),
                   LayerSpec("c2", "conv", (3, 3), (1, 1), (1, 1)))
        a2 = ArchSpec(layers=[LayerSpec("c1", "conv", (3, 7), (1, 1), (1, 3)),
                              LayerSpec("c2", "conv", (3, 1), (1, 1), (1, 0))])
        assert compute_rf(a1).rf_freq == compute_rf(a2).rf_freq
        assert compute_rf(a1).rf_time != compute_rf(a2).rf_time


def test_calculus_imports_neither_numpy_nor_the_engine():
    code = ("import sys, rftag.rf; "
            "print(sorted({'numpy', 'rftag.autodiff'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(Path(rftag.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"
