package harness

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// orphanEnv and orphanBinEnv carry, to the helper child, the localnet root
// and the termnode binary it is to use.
const (
	orphanEnv    = "HARNESS_ORPHAN_DIR"
	orphanBinEnv = "HARNESS_ORPHAN_BIN"
)

// A test binary that dies without Stop takes its daemons with it. The
// helper child (this test re-run with orphanEnv set) starts a 2-site
// localnet, prints its daemons' pids and exits without closing it; each
// daemon must be gone within 5 s. A zombie counts as gone: nobody may reap
// a process whose parent died.
func TestDaemonsDieWithTheirParent(t *testing.T) {
	if dir := os.Getenv(orphanEnv); dir != "" {
		orphanHelper(dir)
		return
	}
	bin, err := buildBinary()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestDaemonsDieWithTheirParent$")
	cmd.Env = append(os.Environ(), orphanEnv+"="+t.TempDir(), orphanBinEnv+"="+bin)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, _ := cmd.Output() // the helper exits non-zero on purpose
	fields := strings.Fields(strings.TrimPrefix(strings.TrimSpace(string(out)), "pids"))
	if !strings.HasPrefix(string(out), "pids") || len(fields) != 2 {
		t.Fatalf("helper printed %q, want two daemon pids\n%s", out, stderr.Bytes())
	}
	var pids []int
	for _, f := range fields {
		pid, err := strconv.Atoi(f)
		if err != nil {
			t.Fatalf("helper printed pid %q: %v", f, err)
		}
		pids = append(pids, pid)
	}
	t.Cleanup(func() { // a daemon that outlived its parent: kill it here
		for _, pid := range pids {
			if alive(pid) {
				syscall.Kill(pid, syscall.SIGKILL) //nolint:errcheck // gone is fine
			}
		}
	})
	deadline := time.Now().Add(5 * time.Second)
	for _, pid := range pids {
		for alive(pid) {
			if time.Now().After(deadline) {
				t.Fatalf("daemon %d still running 5 s after its parent died", pid)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}

// orphanHelper is the helper child's body: a localnet left running as the
// process exits.
func orphanHelper(dir string) {
	l, err := Start(Options{N: 2, T: harnessT, Dir: dir, BinPath: os.Getenv(orphanBinEnv)})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	l.mu.Lock()
	fmt.Printf("pids %d %d\n", l.procs[1].cmd.Process.Pid, l.procs[2].cmd.Process.Pid)
	l.mu.Unlock()
	os.Exit(3) // no Stop; a test's os.Exit(0) is itself a failure
}

// alive reports whether pid is a running termnode: neither gone nor a
// zombie, and not a reused pid.
func alive(pid int) bool {
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return false
	}
	// pid (comm) state ...: comm may hold spaces, so split after the ')'.
	i := bytes.LastIndexByte(stat, ')')
	if i < 0 || !bytes.Contains(stat[:i], []byte("(termnode")) {
		return false
	}
	state := bytes.Fields(stat[i+1:])
	return len(state) > 0 && string(state[0]) != "Z"
}
