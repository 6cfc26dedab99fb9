package main

// Example runs the program; its output is deterministic, so this pins it.
func Example() {
	main()
	// Output:
	// phase 1: create 20 files (commitments stay pending)
	//   13 commitments pending cluster-wide; server 1 holds the most (4 ops, 1058 bytes of valid records)
	//
	// phase 2: CRASH server 1 at t=50ms
	// phase 3: reboot and run the recovery protocol
	//   recovery completed in 224ms (virtual): log scanned, row images redone, commitments resumed, directory counters fsck'd
	//
	// phase 4: verify every file the clients saw created still resolves
	//   20/20 files intact
	//
	// cross-server atomicity invariant: OK after crash + recovery
}
