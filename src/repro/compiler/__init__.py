"""TLS compilation pipeline (paper Section 3.1)."""
