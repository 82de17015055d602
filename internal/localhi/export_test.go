package localhi

import "nucleus/internal/nucleus"

// RefAnd is refAnd, for the tests of package localhi_test, which drive And
// through its callers.
func RefAnd(inst nucleus.Instance, opts Options) *Result { return refAnd(inst, opts) }
