"""End-to-end benchmark of the socket cluster (see README.md in this directory)."""
