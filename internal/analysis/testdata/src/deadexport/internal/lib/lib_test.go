package lib

// A use from a test file does not keep an export alive.
func useTestOnly() { TestOnly() }
