"""Rendering of experiment reports: markdown tables, JSON, SVG bar charts."""

from __future__ import annotations

import json
from dataclasses import fields
from pathlib import Path

import numpy as np

from .dataset import AWARE, UNAWARE
from .errors import FairbenchError
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


def _protocols(report: ExperimentReport) -> list[str]:
    return list(report.provenance["config"]["protocols"])


def _models(report: ExperimentReport) -> list[tuple[str, str]]:
    seen = []
    for e in report.entries:
        key = (e["model"], e["label"])
        if key not in seen:
            seen.append(key)
    return seen


def _performance_md(report: ExperimentReport) -> str:
    protocols = _protocols(report)
    k = report.provenance["config"]["k_folds"]
    fold_heads = [f"Fld {i + 1}" for i in range(k)]
    header = ["Method"]
    for p in protocols:
        header += [f"{PROTOCOL_TITLES[p]} {h}" for h in fold_heads] + [f"{PROTOCOL_TITLES[p]} Mean"]

    lines = [
        "# Performance (macro F1, %)",
        "",
        f"Cohort: {report.provenance['cohort_source']} "
        f"({report.provenance['class_counts']['ITP']} ITP / "
        f"{report.provenance['class_counts']['NonITP']} non-ITP), "
        f"{k}-fold stratified cross-validation.",
        "",
        "| " + " | ".join(header) + " |",
        "|" + "---|" * len(header),
    ]
    for model, label in _models(report):
        row = [label]
        for p in protocols:
            e = report.entry(model, p)
            row += [_pct(s) for s in e["fold_scores"]] + [_pct(e["mean_score"])]
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines) + "\n"


def _fairness_md(report: ExperimentReport) -> str:
    protocols = _protocols(report)
    header = ["Method"]
    for p in protocols:
        header += [f"{PROTOCOL_TITLES[p]} {a.capitalize()}" for a in SENSITIVE_ATTRIBUTES]

    lines = [
        "# Fairness (equalized odds, %)",
        "",
        "Pooled over the concatenated out-of-fold predictions; per-fold values below.",
        "",
        "| " + " | ".join(header) + " |",
        "|" + "---|" * len(header),
    ]
    for model, label in _models(report):
        row = [label]
        for p in protocols:
            e = report.entry(model, p)
            row += [_pct(e["fairness"][a]["pooled"]) for a in SENSITIVE_ATTRIBUTES]
        lines.append("| " + " | ".join(row) + " |")

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
    sub_header = ["Method", "Protocol", "Attribute"] + [
        f"Fld {i + 1}" for i in range(report.provenance["config"]["k_folds"])
    ]
    lines.append("| " + " | ".join(sub_header) + " |")
    lines.append("|" + "---|" * len(sub_header))
    for model, label in _models(report):
        for p in protocols:
            e = report.entry(model, p)
            for a in SENSITIVE_ATTRIBUTES:
                row = [label, PROTOCOL_TITLES[p], a]
                row += [_pct(v) for v in e["fairness"][a]["per_fold"]]
                lines.append("| " + " | ".join(row) + " |")
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


def _svg_barchart(title: str, pairs: list[tuple[str, float]]) -> str:
    bar_h, gap, label_w, chart_w, top = 20, 6, 150, 420, 34
    height = top + len(pairs) * (bar_h + gap) + 12
    width = label_w + chart_w + 90
    vmax = max([v for _, v in pairs if v > 0], default=1.0)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'font-family="sans-serif" font-size="12">',
        f'<text x="8" y="18" font-size="14" font-weight="bold">{title}</text>',
    ]
    y = top
    for name, value in pairs:
        w = int(round(chart_w * max(value, 0.0) / vmax)) if vmax > 0 else 0
        parts.append(
            f'<text x="{label_w - 6}" y="{y + bar_h - 5}" text-anchor="end">{name}</text>'
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
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise FairbenchError(f"cannot read {path}: {exc.strerror or exc}") from None
    except ValueError as exc:  # not UTF-8 or not JSON
        raise FairbenchError(f"{path} is not JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise FairbenchError(f"{path} is not a report: expected a JSON object")
    missing = [f.name for f in fields(ExperimentReport) if f.name not in doc]
    if missing:
        raise FairbenchError(f"{path} is not a report: missing {missing}")
    return ExperimentReport.from_dict(doc)
