"""TLS chip-multiprocessor simulator (paper Sections 3.2-3.3)."""
