#!/usr/bin/env python
"""Generate docs/API.md from the live package's docstrings.

Run from the repository root:  python tools/gen_api_docs.py
The output is committed so the reference is readable without tooling;
re-run after changing any public signature or docstring.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from pathlib import Path

MODULES = [
    "repro",
    "repro.geometry",
    "repro.io",
    "repro.io.blockstore",
    "repro.io.bufferpool",
    "repro.io.layer",
    "repro.io.stats",
    "repro.io.trace",
    "repro.indexability.workload",
    "repro.indexability.scheme",
    "repro.indexability.fibonacci",
    "repro.indexability.lowerbound",
    "repro.indexability.partitions",
    "repro.core.threesided_scheme",
    "repro.core.foursided_scheme",
    "repro.core.small_structure",
    "repro.core.external_pst",
    "repro.core.scheduling",
    "repro.core.range_tree",
    "repro.core.static_index",
    "repro.core.log_method",
    "repro.substrates.blocked_list",
    "repro.substrates.bplus_tree",
    "repro.substrates.wb_btree",
    "repro.substrates.interval_tree",
    "repro.substrates.av_interval_tree",
    "repro.baselines",
    "repro.workloads.generators",
    "repro.workloads.queries",
    "repro.workloads.traces",
    "repro.analysis.bounds",
    "repro.analysis.report",
    "repro.selftest",
]


def first_line(obj) -> str:
    doc = inspect.getdoc(obj) or ""
    return doc.split("\n", 1)[0] if doc else "(undocumented)"


def public_members(mod):
    names = getattr(mod, "__all__", None)
    if names is None:
        names = [n for n in vars(mod) if not n.startswith("_")]
    out = []
    for name in names:
        obj = getattr(mod, name, None)
        if obj is None:
            continue
        if inspect.ismodule(obj):
            continue
        if getattr(obj, "__module__", mod.__name__) != mod.__name__:
            continue   # re-export; documented at its home module
        out.append((name, obj))
    return out


def render_module(mod) -> str:
    lines = [f"## `{mod.__name__}`", ""]
    lines.append(first_line(mod))
    lines.append("")
    for name, obj in public_members(mod):
        if inspect.isclass(obj):
            lines.append(f"### class `{name}`")
            lines.append("")
            lines.append(first_line(obj))
            lines.append("")
            for mname, meth in inspect.getmembers(obj):
                if mname.startswith("_"):
                    continue
                if not (inspect.isfunction(meth) or isinstance(
                    inspect.getattr_static(obj, mname), property
                )):
                    continue
                kind = "property" if isinstance(
                    inspect.getattr_static(obj, mname), property
                ) else "method"
                target = (
                    inspect.getattr_static(obj, mname).fget
                    if kind == "property" else meth
                )
                try:
                    sig = "" if kind == "property" else str(
                        inspect.signature(target)
                    )
                except (TypeError, ValueError):
                    sig = "(...)"
                lines.append(f"- `{mname}{sig}` — {first_line(target)}")
            lines.append("")
        elif inspect.isfunction(obj):
            try:
                sig = str(inspect.signature(obj))
            except (TypeError, ValueError):
                sig = "(...)"
            lines.append(f"### `{name}{sig}`")
            lines.append("")
            lines.append(first_line(obj))
            lines.append("")
    return "\n".join(lines)


def main() -> None:
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    parts = [
        "# API reference",
        "",
        "*Generated by `python tools/gen_api_docs.py` — do not edit by "
        "hand.  First docstring lines only; see the module sources for "
        "full documentation.*",
        "",
    ]
    for name in MODULES:
        mod = importlib.import_module(name)
        parts.append(render_module(mod))
    (root / "docs" / "API.md").write_text("\n".join(parts) + "\n")
    print(f"wrote docs/API.md ({len(parts)} sections)")


if __name__ == "__main__":
    main()
