package user

import (
	"fmt"

	"repro/internal/lib"
)

type renderer interface{ Render() string }

func init() {
	lib.UsedElsewhere()
	var r renderer = lib.T{}
	fmt.Println(r)
}
