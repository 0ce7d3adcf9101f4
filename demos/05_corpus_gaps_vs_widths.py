"""
Are leaderboard gaps larger than the intervals around them?
============================================================

For every paper in a comparison corpus: rank its methods, rebuild the
first-ranked method's CI, and ask whether the runner-up's mean falls
inside it. The bundled demo corpus (77 synthetic leaderboards) shows
the typical picture: the median CI width is about three times the
median performance gap, and for roughly two thirds of the papers the
runner-up sits inside the leader's interval.
"""

from segci import analyze_corpus, paper_model
from segci.cli import bundled_demo_corpus_path
from segci.io import read_corpus_csv

model = paper_model()
papers = read_corpus_csv(bundled_demo_corpus_path())
print(f"corpus: {len(papers)} papers, "
      f"{sum(len(p.methods) for p in papers)} method results")

summary = analyze_corpus(papers, model)

print(f"\nfirst-ranked CI width: median {summary.width.median:.4f}, "
      f"IQR ({summary.width.q1:.4f}, {summary.width.q3:.4f}), max {summary.width.max:.4f}")
print(f"gap to runner-up:      median {summary.delta.median:.4f}, "
      f"IQR ({summary.delta.q1:.4f}, {summary.delta.q3:.4f})")
print(f"width / gap ratio of medians: {summary.width.median / summary.delta.median:.2f}")
print(f"runner-up inside leader CI: {summary.overlap_fraction:.1%} of papers")

print("\nbox-plot five-number summaries:")
for panel in ("width", "delta", "ratio"):
    s = getattr(summary, panel)
    print(f"  {panel:>6}: min={s.min:.4f}, q1={s.q1:.4f}, median={s.median:.4f}, "
          f"q3={s.q3:.4f}, max={s.max:.4f}")

# A few individual papers, largest gaps first.
ranked = sorted(summary.analyses, key=lambda a: a.delta_dsc, reverse=True)
print(f"\n{'paper':>9} {'gap':>7} {'CI width':>9} {'runner-up inside?':>18}")
for a in ranked[:5]:
    print(f"{a.paper_id:>9} {a.delta_dsc:>7.4f} {a.ci_first.width:>9.4f} "
          f"{str(a.second_within_ci):>18}")
