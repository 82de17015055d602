package peel

// The differential suite is an external test (package peel_test): it runs
// the local algorithms, and localhi imports peel.
var (
	RefPeel         = refPeel
	CheckKappa      = checkKappa
	CheckValidOrder = checkValidOrder
	DiffFamilies    = diffFamilies
	DiffInstances   = diffInstances
)
