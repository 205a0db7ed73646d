"""Test-side references: independent implementations the code under test
is compared against.  One copy each, imported by the unit tests (and by
whatever fuzzes the same mechanisms later)."""
