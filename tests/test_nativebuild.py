"""Shared native build helper tests: concurrent builders of one kernel
source publish one usable artifact, and a builder whose own compile
fails still picks up a published one."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.util import nativebuild


# ---------------------------------------------------------------------------
# concurrent native-kernel builds (the shared compile cache)
# ---------------------------------------------------------------------------
class TestConcurrentBuild:
    SOURCE = (
        "#include <stdint.h>\n"
        "int64_t forty_two(void) { return 42; }\n"
    )

    def test_racing_builders_publish_one_artifact(self, tmp_path):
        if nativebuild.find_compiler() is None:
            pytest.skip("no C compiler available")
        with ThreadPoolExecutor(max_workers=4) as pool:
            paths = list(
                pool.map(
                    lambda _: nativebuild.build_shared(
                        self.SOURCE, tmp_path, "racetest"
                    ),
                    range(4),
                )
            )
        assert all(p is not None for p in paths)
        assert len({str(p) for p in paths}) == 1
        assert paths[0].exists()
        # No half-written temporaries survive under the cache dir.
        leftovers = [
            p for p in tmp_path.iterdir() if p.suffix not in (".so",)
        ]
        assert leftovers == []

    def test_failed_build_returns_published_artifact(
        self, tmp_path, monkeypatch
    ):
        """A loser whose own build fails still uses the winner's .so."""
        if nativebuild.find_compiler() is None:
            pytest.skip("no C compiler available")
        digest = nativebuild.build_digest(self.SOURCE, (("-O3",),))
        final = tmp_path / f"racetest_{digest}.so"

        def winner_then_crash(*a, **kw):
            # A concurrent winner publishes while our own build dies.
            final.write_bytes(b"winner artifact")
            raise OSError("compiler crashed")

        monkeypatch.setattr(nativebuild.subprocess, "run", winner_then_crash)
        got = nativebuild.build_shared(self.SOURCE, tmp_path, "racetest")
        assert got == final
        assert got.read_bytes() == b"winner artifact"
