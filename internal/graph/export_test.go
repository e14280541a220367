package graph

// The DIMACS and METIS writers of formats_test.go, for the external
// test package's benchmarks and allocation pins, and the decoders'
// constructor, for its CSR tests.
var (
	EncodeDIMACS = encodeDIMACS
	EncodeMETIS  = encodeMETIS
	NewOwned     = newOwned
)
