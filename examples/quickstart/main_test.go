package main

// Example runs the program; its output is deterministic, so this pins it.
func Example() {
	main()
	// Output:
	// created demo/hello.txt: ino=17179869190 nlink=1 (at virtual t=207.120636ms)
	// after link: nlink=2
	// demo now holds 1 entries: hello.txt
	// cleaned up (at virtual t=213.853444ms)
	//
	// protocol activity: committed=3 aborted=0 lazy-batches=2 conflicts=0
	// virtual workload time: 13.853444ms, total messages: 36
	// cross-server consistency check: OK
}
