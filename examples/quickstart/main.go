// Quickstart: bring up a simulated 4-server metadata cluster running the Cx
// protocol, perform a handful of file operations, and inspect what the
// protocol did underneath — all in deterministic virtual time.
package main

import (
	"fmt"
	"log"

	cxfs "cxfs"
)

func main() {
	fs := cxfs.New(cxfs.Options{Servers: 4, Protocol: cxfs.Cx, Seed: 1})
	defer fs.Close()

	fs.Run(func(ctx *cxfs.Ctx) {
		// A cross-server create: the directory entry lands on one server,
		// the inode on another; Cx executes both sub-operations
		// concurrently and defers the commitment.
		dir, err := ctx.Mkdir(cxfs.Root, "demo")
		if err != nil {
			log.Fatalf("mkdir: %v", err)
		}
		ino, err := ctx.Create(dir, "hello.txt")
		if err != nil {
			log.Fatalf("create: %v", err)
		}
		attr, err := ctx.Stat(ino)
		if err != nil {
			log.Fatalf("stat: %v", err)
		}
		fmt.Printf("created demo/hello.txt: ino=%d nlink=%d (at virtual t=%v)\n",
			attr.Ino, attr.Nlink, ctx.Now())

		// Hard links exercise the link/unlink cross-server pair.
		if err := ctx.Link(dir, "hello-link.txt", ino); err != nil {
			log.Fatalf("link: %v", err)
		}
		attr, _ = ctx.Stat(ino)
		fmt.Printf("after link: nlink=%d\n", attr.Nlink)
		if err := ctx.Unlink(dir, "hello-link.txt", ino); err != nil {
			log.Fatalf("unlink: %v", err)
		}
		entries, err := ctx.Readdir(dir)
		if err != nil {
			log.Fatalf("readdir: %v", err)
		}
		fmt.Printf("demo now holds %d entries:", len(entries))
		for _, e := range entries {
			fmt.Printf(" %s", e.Name)
		}
		fmt.Println()
		if err := ctx.Remove(dir, "hello.txt", ino); err != nil {
			log.Fatalf("remove: %v", err)
		}
		fmt.Printf("cleaned up (at virtual t=%v)\n", ctx.Now())
	})

	st := fs.CxStats()
	fmt.Printf("\nprotocol activity: committed=%d aborted=%d lazy-batches=%d conflicts=%d\n",
		st.OpsCommitted, st.OpsAborted, st.LazyBatches, st.Conflicts)
	fmt.Printf("virtual workload time: %v, total messages: %d\n", fs.Elapsed(), fs.Messages())
	if bad := fs.CheckConsistency(); len(bad) == 0 {
		fmt.Println("cross-server consistency check: OK")
	} else {
		fmt.Println("INCONSISTENT:", bad)
	}
}
