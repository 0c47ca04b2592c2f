"""Rendering of experiment reports: markdown tables, JSON, SVG bar charts."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .dataset import AWARE, PROTOCOLS, UNAWARE
from .errors import FairbenchError, InvariantViolation
from .experiment import SENSITIVE_ATTRIBUTES, ExperimentReport

PROTOCOL_TITLES = {AWARE: "Demographic-aware", UNAWARE: "Demographic-unaware"}

FORMAT_ALIASES = {"md": "markdown", "markdown": "markdown", "json": "json", "svg": "svg"}


def canonical_format(name: str) -> str:
    """The canonical name of the report format ``name`` names, in any case."""
    fmt = FORMAT_ALIASES.get(name.lower())
    if fmt is None:
        raise FairbenchError(f"unknown report format {name!r}; use md, json or svg")
    return fmt


def emit_report(report: ExperimentReport, format: str, out_dir: str | Path) -> list[Path]:
    """Write one output format into out_dir and return the files written."""
    fmt = canonical_format(format)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if fmt == "json":
        path = out_dir / "report.json"
        path.write_text(report.to_json(), encoding="utf-8")
        return [path]
    if fmt == "markdown":
        perf = out_dir / "performance.md"
        perf.write_text(_performance_md(report), encoding="utf-8")
        fair = out_dir / "fairness.md"
        fair.write_text(_fairness_md(report), encoding="utf-8")
        return [perf, fair]
    return _emit_svgs(report, out_dir)


def _pct(v: float) -> str:
    s = f"{v * 100:.1f}"
    return s[:-2] if s.endswith(".0") else s


def _grid(report: ExperimentReport) -> tuple[list[str], list[tuple[str, list[dict]]]]:
    """The report's protocols and its rows: each configured model, in the
    config's order, with its label and its entry under each protocol."""
    config = report.provenance["config"]
    protocols = config["protocols"]
    return protocols, [(report.entry(m, protocols[0])["label"],
                        [report.entry(m, p) for p in protocols]) for m in config["models"]]


def _table(header: list[str], rows: list[list[str]]) -> list[str]:
    """A markdown table's lines: header, separator, rows; a ``|`` in a cell is escaped."""
    lines = ["| " + " | ".join(cell.replace("|", "\\|") for cell in cells) + " |"
             for cells in [header, *rows]]
    lines.insert(1, "|" + "---|" * len(header))
    return lines


def _performance_md(report: ExperimentReport) -> str:
    protocols, rows = _grid(report)
    k = report.provenance["config"]["k_folds"]
    fold_heads = [f"Fld {i + 1}" for i in range(k)]
    header = ["Method"] + [f"{PROTOCOL_TITLES[p]} {h}"
                           for p in protocols for h in [*fold_heads, "Mean"]]
    lines = [
        "# Performance (macro F1, %)",
        "",
        f"Cohort: {report.provenance['cohort_source']} "
        f"({report.provenance['class_counts']['ITP']} ITP / "
        f"{report.provenance['class_counts']['NonITP']} non-ITP), "
        f"{k}-fold stratified cross-validation.",
        "",
    ]
    lines += _table(header, [
        [label] + [_pct(s) for e in entries for s in [*e["fold_scores"], e["mean_score"]]]
        for label, entries in rows
    ])
    return "\n".join(lines) + "\n"


def _fairness_md(report: ExperimentReport) -> str:
    protocols, rows = _grid(report)
    header = ["Method"] + [f"{PROTOCOL_TITLES[p]} {a.capitalize()}"
                           for p in protocols for a in SENSITIVE_ATTRIBUTES]
    lines = [
        "# Fairness (equalized odds, %)",
        "",
        "Pooled over the concatenated out-of-fold predictions; per-fold values below.",
        "",
    ]
    lines += _table(header, [
        [label] + [_pct(e["fairness"][a]["pooled"]) for e in entries for a in SENSITIVE_ATTRIBUTES]
        for label, entries in rows
    ])

    small = [f for f in report.fold_flags if f["small_race_groups"]]
    lines += ["", "## Small-group folds", ""]
    if small:
        for f in small:
            lines.append(
                f"- fold {f['fold']}: race group(s) with < 2 test members: "
                + ", ".join(f["small_race_groups"])
            )
    else:
        lines.append("- none: every race group had at least 2 members in every test fold")

    lines += ["", "## Per-fold equalized odds", ""]
    k = report.provenance["config"]["k_folds"]
    lines += _table(["Method", "Protocol", "Attribute"] + [f"Fld {i + 1}" for i in range(k)], [
        [label, PROTOCOL_TITLES[p], a] + [_pct(v) for v in e["fairness"][a]["per_fold"]]
        for label, entries in rows
        for p, e in zip(protocols, entries)
        for a in SENSITIVE_ATTRIBUTES
    ])
    return "\n".join(lines) + "\n"


def mean_importance(entry: dict, split: str) -> list[tuple[str, float]]:
    """Across-fold mean of each feature's mean score drop, sorted descending."""
    per_fold = entry["importance"][split]
    names = list(per_fold[0]["features"])
    means = {
        name: float(np.mean([f["features"][name]["mean_drop"] for f in per_fold]))
        for name in names
    }
    return sorted(means.items(), key=lambda kv: (-kv[1], kv[0]))


def _emit_svgs(report: ExperimentReport, out_dir: Path) -> list[Path]:
    written = []
    for e in report.entries:
        for split in ("train", "test"):
            pairs = mean_importance(e, split)
            title = f"{e['label']} ({PROTOCOL_TITLES[e['protocol']]}), {split} split"
            path = out_dir / f"importance_{e['model']}_{e['protocol']}_{split}.svg"
            path.write_text(_svg_barchart(title, pairs), encoding="utf-8")
            written.append(path)
    return written


def _xml(text: str) -> str:
    """``text`` as XML character data; xml.sax.saxutils would import urllib (7 MB)."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _svg_barchart(title: str, pairs: list[tuple[str, float]]) -> str:
    bar_h, gap, label_w, chart_w, top = 20, 6, 150, 420, 34
    height = top + len(pairs) * (bar_h + gap) + 12
    width = label_w + chart_w + 90
    vmax = max([v for _, v in pairs if v > 0], default=1.0)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'font-family="sans-serif" font-size="12">',
        f'<text x="8" y="18" font-size="14" font-weight="bold">{_xml(title)}</text>',
    ]
    y = top
    for name, value in pairs:
        w = int(round(chart_w * max(value, 0.0) / vmax)) if vmax > 0 else 0
        parts.append(
            f'<text x="{label_w - 6}" y="{y + bar_h - 5}" text-anchor="end">{_xml(name)}</text>'
        )
        parts.append(
            f'<rect x="{label_w}" y="{y}" width="{w}" height="{bar_h}" fill="#4878a8"/>'
        )
        parts.append(
            f'<text x="{label_w + w + 5}" y="{y + bar_h - 5}">{value:.4f}</text>'
        )
        y += bar_h + gap
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def load_report_json(path: str | Path) -> ExperimentReport:
    """The report a report.json holds, checked as ``ExperimentReport`` checks
    every report; a file that is not one is an error naming it."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise FairbenchError(f"cannot read {path}: {exc.strerror or exc}") from None
    except ValueError as exc:  # not UTF-8 or not JSON
        raise FairbenchError(f"{path} is not JSON: {exc}") from exc
    except RecursionError:  # the decoder recurses once per level of nesting
        raise FairbenchError(f"{path} nests too deeply to read") from None
    try:
        return ExperimentReport.from_dict(doc)
    except InvariantViolation as exc:
        raise InvariantViolation(f"{path} is not a report: {exc}") from None
