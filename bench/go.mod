module pcplsm/bench

go 1.22

require pcplsm v0.0.0

replace pcplsm => ../
