"""Deterministic emission: value formatting, CSV, JSON, and the SVG plots."""

import json

import numpy as np
import pytest

from aerotail.compare import ComparisonReport
from aerotail.mfopt import TraceEntry
from aerotail.report import (
    comparison_rows,
    convergence_trace,
    eigenvalue_scatter,
    format_value,
    mac_heatmap,
    report_payload,
    write_csv,
    write_json,
)


class TestFormatValue:
    def test_twelve_significant_digits(self):
        assert format_value(np.pi) == "3.14159265359"
        assert format_value(1.0 / 3.0) == "0.333333333333"
        assert format_value(1.23456789012345e-7) == "1.23456789012e-07"

    def test_integers_and_bools(self):
        assert format_value(42) == "42"
        assert format_value(np.int64(-3)) == "-3"
        assert format_value(True) == "true"
        assert format_value(np.bool_(False)) == "false"

    def test_strings_pass_through(self):
        assert format_value("maneuver") == "maneuver"
        assert format_value("") == ""

    def test_non_finite(self):
        assert format_value(float("nan")) == "nan"
        assert format_value(float("inf")) == "inf"
        assert format_value(float("-inf")) == "-inf"

    def test_numpy_scalars(self):
        assert format_value(np.float64(2.5)) == "2.5"
        assert format_value(np.float32(1.0)) == "1"


class TestWriteCsv:
    def test_layout_and_trailing_newline(self, tmp_path):
        p = tmp_path / "t.csv"
        write_csv(p, ["a", "b"], [[1, 2.5], [0, "x"]])
        text = p.read_text()
        assert text == "a,b\n1,2.5\n0,x\n"

    def test_byte_identical_rewrite(self, tmp_path):
        rows = [[i, np.sin(i), f"name{i}"] for i in range(5)]
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        write_csv(p1, ["i", "v", "n"], rows)
        write_csv(p2, ["i", "v", "n"], rows)
        assert p1.read_bytes() == p2.read_bytes()

    def test_unix_newlines_only(self, tmp_path):
        p = tmp_path / "t.csv"
        write_csv(p, ["a"], [[1.0]])
        assert b"\r" not in p.read_bytes()


class TestWriteJson:
    def test_sorted_keys_and_rewrite_stability(self, tmp_path):
        payload = {"z": 1, "a": np.arange(3), "m": {"y": 2.0, "x": True}}
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        write_json(p1, payload)
        write_json(p2, payload)
        assert p1.read_bytes() == p2.read_bytes()
        doc = json.loads(p1.read_text())
        assert list(doc) == ["a", "m", "z"]
        assert doc["a"] == [0, 1, 2]
        assert doc["m"]["x"] is True

    def test_values_rounded_to_precision(self, tmp_path):
        p = tmp_path / "t.json"
        write_json(p, {"v": 1.0 / 3.0})
        assert json.loads(p.read_text())["v"] == 0.333333333333

    def test_complex_and_non_finite(self, tmp_path):
        p = tmp_path / "t.json"
        write_json(p, {"z": 1.5 - 2.0j, "bad": float("nan"), "big": float("inf")})
        doc = json.loads(p.read_text())
        assert doc["z"] == {"im": -2.0, "re": 1.5}
        assert doc["bad"] == "nan"
        assert doc["big"] == "inf"

    def test_nested_arrays(self, tmp_path):
        p = tmp_path / "t.json"
        write_json(p, {"m": np.array([[1.0, 2.0], [3.0, 4.0]]), "t": (1, 2)})
        doc = json.loads(p.read_text())
        assert doc["m"] == [[1.0, 2.0], [3.0, 4.0]]
        assert doc["t"] == [1, 2]


class TestComparisonRows:
    def test_frozen_header(self):
        header, _ = comparison_rows({}, {}, {})
        assert header == ["index", "lf_value", "hf_value", "relative_error"]

    def test_alignment_and_missing_errors(self):
        lfv = {"first": 1.0, "second": 2.0}
        hfv = {"first": 1.1, "second": 2.2}
        err = {"first": 0.09}
        _, rows = comparison_rows(lfv, hfv, err)
        assert rows == [[0, 1.0, 1.1, 0.09], [1, 2.0, 2.2, ""]]


class TestReportPayload:
    def test_round_trip_through_json(self, tmp_path):
        rep = ComparisonReport(
            case=2,
            lf_values={"omega_1": 10.0},
            hf_values={"omega_1": 11.0},
            relative_errors={"omega_1": 1.0 / 11.0},
            eigenvalue_tables={"lf_omega": np.array([10.0])},
            mac=np.array([[1.0]]),
            flags={"matched_modes": True},
        )
        p = tmp_path / "r.json"
        write_json(p, report_payload(rep))
        doc = json.loads(p.read_text())
        assert doc["case"] == 2
        assert doc["flags"]["matched_modes"] is True
        assert doc["mac"] == [[1.0]]
        assert doc["eigenvalue_tables"]["lf_omega"] == [10.0]

    def test_optional_fields_omitted(self):
        rep = ComparisonReport(case=1, flags={"ok": True})
        payload = report_payload(rep)
        assert "mac" not in payload
        assert "eigenvalue_tables" not in payload


class TestSvg:
    def test_scatter_marks_every_eigenvalue(self, tmp_path):
        p = tmp_path / "e.svg"
        lf = np.array([-1.0 + 2.0j, -0.5 - 1.0j, 0.2 + 0.0j])
        hf = np.array([-1.1 + 2.1j, -0.6 - 0.9j])
        eigenvalue_scatter(p, lf, hf, title="eigs")
        text = p.read_text()
        assert text.startswith("<svg")
        assert text.rstrip().endswith("</svg>")
        # one circle per LF eigenvalue plus the legend sample
        assert text.count("<circle") == lf.size + 1
        assert text.count("<path") == hf.size + 1
        assert "eigs" in text

    def test_scatter_rewrite_is_byte_stable(self, tmp_path):
        lf = np.array([1.0 + 1.0j])
        hf = np.array([1.0 - 1.0j])
        p1 = tmp_path / "a.svg"
        p2 = tmp_path / "b.svg"
        eigenvalue_scatter(p1, lf, hf)
        eigenvalue_scatter(p2, lf, hf)
        assert p1.read_bytes() == p2.read_bytes()

    def test_heatmap_annotates_cells(self, tmp_path):
        p = tmp_path / "m.svg"
        mac_heatmap(p, np.array([[1.0, 0.37], [0.12, 0.98]]))
        text = p.read_text()
        assert text.count("<rect") == 4 + 1  # cells plus background
        assert ">0.37<" in text
        assert ">0.12<" in text
        # high-value cells flip to white text for contrast
        assert 'fill="white">1.00<' in text
        assert "HF mode" in text and "LF mode" in text

    def test_heatmap_rejects_non_matrix(self, tmp_path):
        with pytest.raises(ValueError):
            mac_heatmap(tmp_path / "m.svg", np.ones(3))

    def test_trace_skips_unevaluated_points(self, tmp_path):
        trace = [
            TraceEntry(x=np.zeros(2), f_hf=5.0, violation=0.0, delta=0.1,
                       rho=np.nan, accepted=True),
            TraceEntry(x=np.zeros(2), f_hf=np.nan, violation=np.nan, delta=0.05,
                       rho=-np.inf, accepted=False),
            TraceEntry(x=np.zeros(2), f_hf=4.0, violation=0.0, delta=0.1,
                       rho=1.0, accepted=True),
            TraceEntry(x=np.zeros(2), f_hf=4.5, violation=0.0, delta=0.05,
                       rho=0.01, accepted=False),
        ]
        p = tmp_path / "t.svg"
        convergence_trace(p, trace)
        text = p.read_text()
        # three finite points drawn, two of them accepted and joined
        assert text.count("<circle") == 3
        assert text.count("<polyline") == 1
        assert 'fill="none"' in text

    def test_trace_requires_finite_objective(self, tmp_path):
        trace = [TraceEntry(x=np.zeros(1), f_hf=np.nan, violation=np.nan,
                            delta=0.1, rho=np.nan, accepted=False)]
        with pytest.raises(ValueError):
            convergence_trace(tmp_path / "t.svg", trace)

    def test_frame_ticks_and_titles_in_place(self, tmp_path):
        # the three plots share one frame and label layout; pin its lines
        frame = '<rect x="70" y="40" width="540" height="385" fill="none" stroke="black"/>'

        def labels(path):
            # the frame, then tick labels and axis titles: anchored text that
            # is neither the plot title nor a coloured cell annotation
            return [
                s for s in path.read_text().splitlines()
                if s == frame or s.startswith("<text") and "text-anchor" in s
                and 'font-size="16"' not in s and "fill=" not in s
            ]

        p = tmp_path / "s.svg"
        eigenvalue_scatter(p, np.array([-1.0 + 2.0j]), np.array([-1.1 + 2.1j]))
        assert labels(p) == [
            frame,
            '<text x="70" y="443" text-anchor="middle" font-size="11">-1.108</text>',
            '<text x="610" y="443" text-anchor="middle" font-size="11">-0.992</text>',
            '<text x="64" y="429" text-anchor="end" font-size="11">1.992</text>',
            '<text x="64" y="44" text-anchor="end" font-size="11">2.108</text>',
            '<text x="340.0" y="464" text-anchor="middle" font-size="12">Re</text>',
            '<text x="18" y="232.5" text-anchor="middle" font-size="12" '
            'transform="rotate(-90 18 232.5)">Im</text>',
        ]
        p = tmp_path / "m.svg"
        mac_heatmap(p, np.array([[1.0, 0.37], [0.12, 0.98]]))
        assert labels(p) == [
            '<text x="205" y="443" text-anchor="middle" font-size="11">1</text>',
            '<text x="475" y="443" text-anchor="middle" font-size="11">2</text>',
            '<text x="62" y="147.75" text-anchor="end" font-size="11">1</text>',
            '<text x="62" y="335.25" text-anchor="end" font-size="11">2</text>',
            '<text x="340.0" y="464" text-anchor="middle" font-size="12">HF mode</text>',
            '<text x="16" y="237.5" text-anchor="middle" font-size="12" '
            'transform="rotate(-90 16 237.5)">LF mode</text>',
        ]
        p = tmp_path / "t.svg"
        convergence_trace(p, [
            TraceEntry(x=np.zeros(2), f_hf=5.0, violation=0.0, delta=0.1,
                       rho=np.nan, accepted=True),
            TraceEntry(x=np.zeros(2), f_hf=4.0, violation=0.0, delta=0.1,
                       rho=1.0, accepted=True),
        ])
        assert labels(p) == [
            frame,
            '<text x="70" y="443" text-anchor="middle" font-size="11">0</text>',
            '<text x="610" y="443" text-anchor="middle" font-size="11">1</text>',
            '<text x="64" y="429" text-anchor="end" font-size="11">3.92</text>',
            '<text x="64" y="44" text-anchor="end" font-size="11">5.08</text>',
            '<text x="340.0" y="464" text-anchor="middle" font-size="12">iterate</text>',
            '<text x="18" y="232.5" text-anchor="middle" font-size="12" '
            'transform="rotate(-90 18 232.5)">objective</text>',
        ]
