package lint

// EventPostMethods and EventPostPackages expose maporder's lists to the
// test that checks them against the module.
var (
	EventPostMethods  = eventPostMethods
	EventPostPackages = eventPostPackages
)
