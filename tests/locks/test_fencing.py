"""The fence is checked where a release commits.

``tests/fuzz/corpus/seed-6853-fence-at-the-commit-point.json`` (seed 6853
shrunk) excludes a server-lock holder after it entered its release and
before it sent its unlock.  The clean twin replays ``[ok]`` with that
release rejected; the mutant makes the same check with the fencing token
as it was at release entry, so the unlock goes out on a revoked lease and
RMCSan reports split-brain.
"""

import pathlib

from repro.fuzz.campaign import load_corpus_entry
from repro.fuzz.runner import run_scenario
from repro.locks.base import BaseLock

ENTRY = (
    pathlib.Path(__file__).parent.parent
    / "fuzz"
    / "corpus"
    / "seed-6853-fence-at-the-commit-point.json"
)


def test_the_fence_rejects_the_release_where_it_commits(monkeypatch):
    rejected = []
    fenced = BaseLock._fenced

    def spy(self):
        if fenced(self):
            rejected.append((self.kind, self.ctx.rank))
            return True
        return False

    monkeypatch.setattr(BaseLock, "_fenced", spy)
    _note, scenario = load_corpus_entry(ENTRY)
    outcome = run_scenario(scenario)
    assert outcome.ok(), outcome.violations
    assert rejected == [("server", 6)]


def test_checked_at_release_entry_the_fence_lets_split_brain_through(monkeypatch):
    release = BaseLock.release
    rejected = []

    def release_noting_the_entry_token(self):
        svc = self._membership_svc
        if svc is not None:
            self._entry_token = svc.fence_token(svc.lock_key(self))
        yield from release(self)

    def fenced_at_entry(self):
        # The decision was taken at entry; the lease is left to be revoked.
        if self._entry_token != self._acq_fence:
            rejected.append((self.kind, self.ctx.rank))
            return True
        return False

    monkeypatch.setattr(BaseLock, "release", release_noting_the_entry_token)
    monkeypatch.setattr(BaseLock, "_fenced", fenced_at_entry)
    _note, scenario = load_corpus_entry(ENTRY)
    outcome = run_scenario(scenario)
    assert "san-split-brain" in outcome.kinds()
    assert rejected == []
