"""Shared test state: the acceptance suite records one line per
criterion here so the final report survives pytest's output capture.
Also the ``lapack_calls`` fixture shared by the spectral and CLI tests."""

import pytest

from toughcert import spectral

acceptance_lines: list[str] = []


@pytest.fixture
def lapack_calls(monkeypatch):
    """Stacks that reach ``eigvalsh`` through ``spectral_radii`` while a
    test runs; ``spectral_radius`` calls it exactly when it falls back."""
    calls = []
    solve = spectral.spectral_radii

    def spy(stack):
        calls.append(len(stack))
        return solve(stack)

    monkeypatch.setattr(spectral, "spectral_radii", spy)
    return calls


def pytest_terminal_summary(terminalreporter):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)
