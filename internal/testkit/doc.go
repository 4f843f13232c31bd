// Package testkit is the home of the module's test-only code: reference
// oracles and validators that tests in several packages share, kept out
// of every shipped binary. Its subpackages are flow (a min-cost max-flow
// solver, the oracle of internal/iq's and internal/offline's tests) and
// promcheck (a strict Prometheus text-format parser, the validator of
// internal/obs's and internal/shard's tests and of CI's live /metrics
// scrape). CheckTestOnly is the import guard that each of them and
// TestTestkitIsTestOnly run: it fails if a non-test file outside this
// directory imports the package it is given.
package testkit
