"""The repo's end-to-end and per-layer performance benchmark (see README.md)."""
