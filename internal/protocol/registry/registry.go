// Package registry names the repository's commit protocols. The name is
// the cross-process contract: cmd/termsim selects a protocol by name,
// cmd/termnode daemons are launched with the same name, and the cluster
// NetBackend launches every node of a localnet under its protocol's
// Name() — so every name here is the Name() of what it resolves to, and
// NetBackend refuses any protocol value not registered under its name.
//
// The ten names resolve into five packages: an augmentation the paper
// draws as a second figure is a field of its base protocol, so "2pc-ext"
// is twopc with Extended, "3pc-mod" and "3pc-rules" are threepc with
// Modified and Rules, and the three termination names are core's options.
package registry

import (
	"fmt"
	"sort"

	"termproto/internal/core"
	"termproto/internal/proto"
	"termproto/internal/protocol/cooperative"
	"termproto/internal/protocol/quorum"
	"termproto/internal/protocol/threepc"
	"termproto/internal/protocol/twopc"
)

// Default is the conventional protocol for network clusters: the paper's
// termination protocol with the §6 transient-partition modification.
const Default = "termination+transient"

var protocols = map[string]proto.Protocol{
	"2pc":                   twopc.Protocol{},
	"2pc-ext":               twopc.Protocol{Extended: true},
	"3pc":                   threepc.Protocol{},
	"3pc-mod":               threepc.Protocol{Modified: true},
	"3pc-rules":             threepc.Protocol{Rules: threepc.RuleA()},
	"quorum":                quorum.Protocol{},
	"3pc-cooperative":       cooperative.Protocol{},
	"termination":           core.Protocol{},
	"termination+transient": core.Protocol{TransientFix: true},
	"4pc-termination":       core.Protocol{FourPhase: true, TransientFix: true},
}

// Lookup resolves a protocol by name.
func Lookup(name string) (proto.Protocol, error) {
	p, ok := protocols[name]
	if !ok {
		return nil, fmt.Errorf("unknown protocol %q (known: %v)", name, Names())
	}
	return p, nil
}

// Names lists the registered protocol names in sorted order.
func Names() []string {
	out := make([]string, 0, len(protocols))
	for name := range protocols {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
