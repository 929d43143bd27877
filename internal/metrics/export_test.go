package metrics

// The external reference test (reference_test.go) builds its record
// pools and PR curves with these types.
type (
	ClassRecords = classRecords
	Record       = record
	PRPoint      = prPoint
)
