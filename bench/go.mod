module qswitch/bench

go 1.24

require qswitch v0.0.0

replace qswitch => ../
