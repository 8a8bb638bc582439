package harden

import (
	"fmt"
	"sort"

	"fidelity/internal/campaign"
	"fidelity/internal/nn"
)

// Config is a complete hardening configuration: the clamp set installed in
// the forward path, the layer executions marked for duplicated execution,
// and whether global-control FFs are assumed hardened. It serializes
// canonically (Clamps sorted by site, Duplicated sorted), so its fingerprint
// is stable.
type Config struct {
	// Clamps are the per-site range-restriction envelopes, sorted by site.
	Clamps []Envelope `json:"clamps,omitempty"`
	// Duplicated lists the duplicated layer executions ("site#visit",
	// sorted). Duplication is a cost model over Eq. 2, not an execution-path
	// change, so it does not affect experiment results — it still joins the
	// fingerprint because the config is one artifact.
	Duplicated []string `json:"duplicated,omitempty"`
	// ProtectGlobal assumes hardened (e.g. DICE) global-control FFs.
	ProtectGlobal bool `json:"protect_global,omitempty"`
}

// Zero reports whether the config applies no mitigation at all.
func (c *Config) Zero() bool {
	return len(c.Clamps) == 0 && len(c.Duplicated) == 0 && !c.ProtectGlobal
}

// Fingerprint returns the content digest of the canonicalized config, or ""
// for the zero config. It names the config as one artifact; a campaign's
// checkpoint identity fingerprints only what changes its forward passes, the
// clamps installed on its network (nn.Network.ClampFingerprint).
func (c *Config) Fingerprint() (string, error) {
	if c.Zero() {
		return "", nil
	}
	canon := Config{
		Clamps:        append([]Envelope(nil), c.Clamps...),
		Duplicated:    append([]string(nil), c.Duplicated...),
		ProtectGlobal: c.ProtectGlobal,
	}
	sort.Slice(canon.Clamps, func(i, j int) bool { return canon.Clamps[i].Site < canon.Clamps[j].Site })
	sort.Strings(canon.Duplicated)
	return campaign.SumJSON(canon)
}

// Apply installs the clamp set on net. Call before any forward pass of the
// hardened campaign; envelopes are read-only afterwards, so concurrent
// workers can share the network.
func (c *Config) Apply(net *nn.Network) error {
	for _, e := range c.Clamps {
		if e.Lo > e.Hi {
			return fmt.Errorf("harden: envelope for %s is inverted [%v, %v]", e.Site, e.Lo, e.Hi)
		}
		s, err := net.SiteByName(e.Site)
		if err != nil {
			return err
		}
		net.SetClamp(s, nn.Bound{Lo: e.Lo, Hi: e.Hi})
	}
	return nil
}
