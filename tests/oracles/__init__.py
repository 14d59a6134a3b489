"""Brute-force reference implementations that the test suites compare against."""
