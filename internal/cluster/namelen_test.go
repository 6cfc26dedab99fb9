package cluster

import (
	"errors"
	"strings"
	"testing"

	"cxfs/internal/simrt"
	"cxfs/internal/types"
)

// A name longer than types.MaxName is refused by the client before anything
// is sent, under every protocol and for every operation that carries one;
// a name of exactly MaxName bytes goes through. Without the check a Cx
// create of a 30,000-byte name panicked its server: the Result-Record
// carrying the name twice outgrew a log chunk.
func TestNamesOverMaxNameAreRefused(t *testing.T) {
	for _, proto := range Protocols {
		t.Run(string(proto), func(t *testing.T) {
			c := MustNew(smallOptions(proto))
			defer c.Shutdown()
			runWorkload(t, c, func(p *simrt.Proc, pr *Process, idx int) {
				if idx != 0 {
					return
				}
				root := types.RootInode
				longest := strings.Repeat("n", types.MaxName)
				ino, err := pr.Create(p, root, longest)
				if err != nil {
					t.Fatalf("create of a %d-byte name: %v", len(longest), err)
				}
				if in, err := pr.Lookup(p, root, longest); err != nil || in.Ino != ino {
					t.Errorf("lookup of a %d-byte name: %v, %v", len(longest), in, err)
				}
				sent := c.Counters().Net.Messages
				for _, n := range []int{types.MaxName + 1, 30000, 40000, 65535} {
					long := strings.Repeat("x", n)
					errs := map[string]error{}
					_, errs["create"] = pr.Create(p, root, long)
					_, errs["mkdir"] = pr.Mkdir(p, root, long)
					_, errs["lookup"] = pr.Lookup(p, root, long)
					errs["remove"] = pr.Remove(p, root, long, ino)
					errs["rmdir"] = pr.Rmdir(p, root, long, ino)
					errs["link"] = pr.Link(p, root, long, ino)
					errs["unlink"] = pr.Unlink(p, root, long, ino)
					for op, err := range errs {
						if !errors.Is(err, types.ErrNameTooLong) {
							t.Errorf("%s of a %d-byte name: %v, want %v", op, n, err, types.ErrNameTooLong)
						}
					}
				}
				if got := c.Counters().Net.Messages; got != sent {
					t.Errorf("refused operations sent %d messages", got-sent)
				}
				if err := pr.Remove(p, root, longest, ino); err != nil {
					t.Errorf("remove of a %d-byte name: %v", len(longest), err)
				}
			})
			checkClean(t, c)
		})
	}
}
