"""Output checks: properties the method must have and the paper's figures.

Each check returns a list of problems (empty when the output passes).
None compares against a stored copy of earlier output; the bands around
the paper's figures are stated next to each constant.
"""

from __future__ import annotations

import re

# Figure 4a: 65% single-bit single-entry and 28% multi-bit multi-entry
# events.  The simulated campaign is tuned to the paper's shares; the
# band allows the model's own offset plus sampling noise at any seed.
PAPER_SBSE = 65.0
PAPER_MBME = 28.0
CLASS_BAND_PP = 5.0
# TrioECC corrects 97% of Table-1-weighted errors in the paper (Fig. 8).
PAPER_TRIO_CORRECTED = 97.0
TRIO_BAND_PP = 1.5
# Percentages are printed with two decimals, so a row of three may miss
# 100% by up to three half-units of rounding.
SUM_TOLERANCE_PP = 0.02
# Table 1 prints seven two-decimal shares; Figure 4a four one-decimal ones.
TABLE1_SUM_TOLERANCE_PP = 0.04
CLASS_SUM_TOLERANCE_PP = 0.2

REGISTRY_NAMES = (
    "ni-secded", "i-secded", "duet", "ni-sec2bec", "i-sec2bec", "trio",
    "i-ssc", "i-ssc-csc", "ssc-dsd+", "dsc", "ssc-tsd", "hsiao-v2",
    "sec-daec", "bch-dec", "polar",
)
BYTE_CORRECTORS = ("I:SEC-2bEC+CSC (TrioECC)", "I:SSC", "SSC-DSD+")
TRIO_LABEL = "I:SEC-2bEC+CSC (TrioECC)"
_PERCENT = re.compile(r"^(\d+(?:\.\d+)?(?:e[-+]?\d+)?)%$")


def percent(cell: str) -> float:
    """A printed share in percent (``0`` is the printed zero)."""
    cell = cell.strip()
    if cell == "0":
        return 0.0
    match = _PERCENT.match(cell)
    if not match:
        raise ValueError(f"not a percentage: {cell!r}")
    return float(match.group(1))


def comparable_lines(text: str) -> list[str]:
    """Output lines without run-store chatter, whose run ids must differ."""
    return [line for line in text.splitlines()
            if line.strip() and not line.startswith("[repro")]


# -- campaign -----------------------------------------------------------------

def table1_block(stdout: str) -> str:
    """The ``Derived Table 1`` block of a ``repro campaign`` report."""
    lines = stdout.splitlines()
    try:
        start = lines.index("Derived Table 1:")
    except ValueError:
        return ""
    block = [lines[start]]
    for line in lines[start + 1:]:
        if not line.startswith("  "):
            break
        block.append(line)
    return "\n".join(block)


def _indented_shares(stdout: str, header: str) -> dict[str, float]:
    lines = stdout.splitlines()
    if header not in lines:
        return {}
    shares = {}
    for line in lines[lines.index(header) + 1:]:
        if not line.startswith("  "):
            break
        name, _, value = line.strip().partition(":")
        shares[name.strip()] = percent(value)
    return shares


def check_campaign(stdout: str) -> list[str]:
    problems = []
    classes = _indented_shares(stdout, "Event classes (Figure 4a):")
    if set(classes) != {"SBSE", "SBME", "MBSE", "MBME"}:
        return [f"Figure 4a classes missing: {sorted(classes)}"]
    if abs(sum(classes.values()) - 100.0) > CLASS_SUM_TOLERANCE_PP:
        problems.append(f"Figure 4a shares sum to {sum(classes.values())}")
    for name, paper in (("SBSE", PAPER_SBSE), ("MBME", PAPER_MBME)):
        if abs(classes[name] - paper) > CLASS_BAND_PP:
            problems.append(f"{name} {classes[name]}% outside "
                            f"{paper}±{CLASS_BAND_PP}%")
    table1 = _indented_shares(stdout, "Derived Table 1:")
    if len(table1) != 7:
        return problems + [f"Table 1 has {len(table1)} patterns, not 7"]
    if abs(sum(table1.values()) - 100.0) > TABLE1_SUM_TOLERANCE_PP:
        problems.append(f"Table 1 shares sum to {sum(table1.values())}")
    if not table1["1 Bit"] > table1["1 Byte"] > table1["1 Entry"]:
        problems.append("Table 1 does not keep 1 Bit > 1 Byte > 1 Entry")
    return problems


# -- ecc ----------------------------------------------------------------------

def _ascii_rows(stdout: str, columns: int) -> list[list[str]]:
    """Data rows of a ``format_table`` table (two-space separated)."""
    rows = []
    for line in stdout.splitlines():
        cells = [c for c in re.split(r"\s{2,}", line.strip()) if c]
        if len(cells) == columns and "%" in line:
            rows.append(cells)
    return rows


def _md_section(markdown: str, title: str) -> list[list[str]]:
    """Data rows of the Markdown table under ``## <title>``."""
    lines = markdown.splitlines()
    start = next((i for i, line in enumerate(lines)
                  if line.startswith(f"## {title}")), None)
    if start is None:
        return []
    rows = []
    for line in lines[start + 1:]:
        if line.startswith("## "):
            break
        if line.startswith("| ") and not line.startswith("|---"):
            rows.append([c.strip() for c in line.strip().strip("|")
                         .split("|")])
    return rows[1:]  # drop the header row


def _row_sums(rows, first: int, label: str) -> list[str]:
    problems = []
    for row in rows:
        total = sum(percent(row[first + k]) for k in range(3))
        if abs(total - 100.0) > SUM_TOLERANCE_PP:
            problems.append(f"{label} row {row[0]!r} sums to {total:.4f}%")
    return problems


def check_fig8(stdout: str) -> list[str]:
    rows = _ascii_rows(stdout, 4)
    if len(rows) != 9:
        return [f"fig8 lists {len(rows)} organisations, not 9"]
    problems = _row_sums(rows, 1, "fig8")
    trio = [row for row in rows if row[0] == TRIO_LABEL]
    if not trio:
        problems.append("fig8 has no TrioECC row")
    elif abs(percent(trio[0][1]) - PAPER_TRIO_CORRECTED) > TRIO_BAND_PP:
        problems.append(f"TrioECC corrects {trio[0][1]}, outside "
                        f"{PAPER_TRIO_CORRECTED}±{TRIO_BAND_PP}%")
    return problems


def check_rank(stdout: str) -> list[str]:
    rows = [row for row in _ascii_rows(stdout, 11) if row[0].isdigit()]
    names = sorted(row[1] for row in rows)
    if names != sorted(REGISTRY_NAMES):
        return [f"rank lists {names}, not the 15 registry names"]
    return _row_sums(rows, 4, "rank")


def check_report(markdown: str) -> list[str]:
    problems = []
    table2 = _md_section(markdown, "Table 2")
    if len(table2) != 9:
        return [f"report Table 2 has {len(table2)} rows, not 9"]
    for row in table2:
        if row[1] != "C":
            problems.append(f"{row[0]} does not correct every 1-bit error")
        if row[0] in BYTE_CORRECTORS and row[3] != "C":
            problems.append(f"{row[0]} does not correct every byte error")
    fig8 = _md_section(markdown, "Figure 8")
    if len(fig8) != 9:
        problems.append(f"report Figure 8 has {len(fig8)} rows, not 9")
    problems += _row_sums(fig8, 1, "report Figure 8")
    return problems
