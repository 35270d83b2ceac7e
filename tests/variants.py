"""One fix under one named preset, as a set of hashes: the shape most
engine tests compare against their hand-derived expectations."""

from bictrace.engine import preset, run_configs


def run_variant(repo, fix_commit, preset_name, cutoff=None, refactorings=None) -> set[str]:
    """Detected bug-inducing commits (full hashes); with ``cutoff``, only
    those committed no later."""
    [cands] = run_configs(repo, fix_commit, [(preset(preset_name), cutoff)], refactorings)
    return {c.commit for c in cands}
