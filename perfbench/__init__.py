"""Layered end-to-end benchmark of the GSN container (see README.md)."""
