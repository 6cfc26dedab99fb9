package main

// Example runs the program; its output is deterministic, so this pins it.
func Example() {
	main()
	// Output:
	// checkpoint storm: 32 processes x 3 rounds x 10 files on 8 servers
	//
	// se           time=542ms        messages=7300    improvement over OFS:   0.0%
	// se-batched   time=506ms        messages=7300    improvement over OFS:   6.5%
	// cx           time=351ms        messages=7528    improvement over OFS:  35.3%
}
