package main

// Example runs the program; its output is deterministic, so this pins it.
func Example() {
	main()
	// Output:
	// mail server: 16 users x 60 actions on 4 servers (Cx protocol)
	//
	// polling fresh mail: time=433ms        conflicts=97   immediate-commits=58   lazy-batches=8
	// exclusive access:   time=591ms        conflicts=0    immediate-commits=0    lazy-batches=16
	//
	// reading another process's uncommitted files forced 58 immediate commitments;
	// with exclusive access everything rides the lazy batches — the §II.C pattern
	// that makes Cx's deferred commitment safe in practice.
}
