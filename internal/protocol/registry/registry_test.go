package registry

import "testing"

// The net backend launches its daemons with -proto Config.Protocol.Name():
// that only selects the same protocol on the far side of the process
// boundary while every registered name is its protocol's own name.
func TestRegistryNamesAreProtocolNames(t *testing.T) {
	for _, name := range Names() {
		p, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if p.Name() != name {
			t.Errorf("registry name %q resolves to a protocol named %q", name, p.Name())
		}
	}
}
