"""End-to-end benchmark of the repro commands (see README.md)."""
