package cluster

import "wfreach/internal/api"

// State returns the controller's live placement.
func (c *Controller) State() *api.Placement { return c.state }
